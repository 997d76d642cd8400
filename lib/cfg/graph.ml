type edge_kind =
  | Taken
  | Fallthru
  | Uncond
  | Switch of int

type edge = { src : int; dst : int; kind : edge_kind }

type t = {
  proc : Mips.Program.proc;
  nblocks : int;
  first : int array;
  last : int array;
  succs : edge list array;
  preds : edge list array;
  block_of_instr : int array;
}

let build (proc : Mips.Program.proc) =
  let body = proc.body in
  let n = Array.length body in
  if n = 0 then invalid_arg "Graph.build: empty procedure";
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun idx ins ->
      (match Mips.Insn.branch_target ins with
      | Some l -> leader.(l) <- true
      | None -> ());
      (match ins with
      | Mips.Insn.Jtab (_, ls) -> Array.iter (fun l -> leader.(l) <- true) ls
      | _ -> ());
      if Mips.Insn.is_block_end ins && idx + 1 < n then leader.(idx + 1) <- true)
    body;
  let block_of_instr = Array.make n 0 in
  let firsts = ref [] and lasts = ref [] in
  let nblocks = ref 0 in
  for idx = 0 to n - 1 do
    if leader.(idx) then begin
      incr nblocks;
      firsts := idx :: !firsts;
      if idx > 0 then lasts := (idx - 1) :: !lasts
    end;
    block_of_instr.(idx) <- !nblocks - 1
  done;
  lasts := (n - 1) :: !lasts;
  let first = Array.of_list (List.rev !firsts) in
  let last = Array.of_list (List.rev !lasts) in
  let nblocks = !nblocks in
  let succs = Array.make nblocks [] in
  let preds = Array.make nblocks [] in
  let add_edge src dst kind =
    let e = { src; dst; kind } in
    succs.(src) <- e :: succs.(src);
    preds.(dst) <- e :: preds.(dst)
  in
  for b = 0 to nblocks - 1 do
    let t = last.(b) in
    let ins = body.(t) in
    if Mips.Insn.is_cond_branch ins then begin
      (match Mips.Insn.branch_target ins with
      | Some l -> add_edge b block_of_instr.(l) Taken
      | None -> assert false);
      if t + 1 < n then add_edge b block_of_instr.(t + 1) Fallthru
    end
    else
      match ins with
      | Mips.Insn.J l -> add_edge b block_of_instr.(l) Uncond
      | Mips.Insn.Jtab (_, ls) ->
        Array.iteri (fun i l -> add_edge b block_of_instr.(l) (Switch i)) ls
      | Mips.Insn.Ret | Mips.Insn.Halt -> ()
      | _ -> if t + 1 < n then add_edge b block_of_instr.(t + 1) Uncond
  done;
  (* Keep successor lists in (Taken, Fallthru) order for branches. *)
  let kind_rank = function
    | Taken -> 0
    | Fallthru -> 1
    | Uncond -> 2
    | Switch i -> 3 + i
  in
  Array.iteri
    (fun b es ->
      succs.(b) <-
        List.sort (fun a c -> compare (kind_rank a.kind) (kind_rank c.kind)) es)
    succs;
  { proc; nblocks; first; last; succs; preds; block_of_instr }

let entry _ = 0

let block_insns g b =
  let rec go idx acc =
    if idx < g.first.(b) then acc else go (idx - 1) (g.proc.body.(idx) :: acc)
  in
  go g.last.(b) []

let terminator g b = g.proc.body.(g.last.(b))

let branch_edges g b =
  if Mips.Insn.is_cond_branch (terminator g b) then begin
    let taken = List.find_opt (fun e -> e.kind = Taken) g.succs.(b) in
    let fall = List.find_opt (fun e -> e.kind = Fallthru) g.succs.(b) in
    match taken, fall with
    | Some t, Some f -> Some (t, f)
    | _ -> None (* branch at the very end of the body: no fall-through *)
  end
  else None

let single_uncond_succ g b =
  match g.succs.(b) with
  | [ { kind = Uncond; dst; _ } ] -> Some dst
  | _ -> None


let iter_edges f g = Array.iter (List.iter f) g.succs

let pp ppf g =
  for b = 0 to g.nblocks - 1 do
    Format.fprintf ppf "block %d [%d..%d] -> %s@." b g.first.(b) g.last.(b)
      (String.concat ","
         (List.map (fun e -> string_of_int e.dst) g.succs.(b)))
  done

let to_dot ppf g =
  Format.fprintf ppf "digraph %s {@." g.proc.name;
  for b = 0 to g.nblocks - 1 do
    Format.fprintf ppf "  n%d [label=\"B%d\\n%s\"];@." b b
      (String.concat "\\n"
         (List.map Mips.Insn.to_string (block_insns g b)))
  done;
  iter_edges
    (fun e ->
      let style =
        match e.kind with
        | Taken -> " [label=T]"
        | Fallthru -> " [label=F]"
        | Uncond -> ""
        | Switch i -> Printf.sprintf " [label=S%d]" i
      in
      Format.fprintf ppf "  n%d -> n%d%s;@." e.src e.dst style)
    g;
  Format.fprintf ppf "}@."
