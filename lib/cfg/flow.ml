(* Kirchhoff-style flow checking of edge profiles.

   Only conditional branches are observed (taken / fall-through counts
   per branch pc); everything else is derived.  Facts — block counts,
   edge counts, the procedure entry count — are set once and never
   overwritten: a derivation that disagrees with an established fact
   is a reported inconsistency, and the propagation is monotone, so
   the fixpoint terminates. *)

module G = Graph

type pstate = {
  name : string;
  g : G.t;
  cnt : int option array;              (* per-block execution count *)
  mutable entries : int option;        (* procedure invocations *)
  edges : (int * int * G.edge_kind, int) Hashtbl.t;
  mutable msgs : string list;          (* newest first *)
  seen : (string, unit) Hashtbl.t;     (* message dedup *)
  mutable dirty : bool;
}

let report st msg =
  let msg = Printf.sprintf "%s: %s" st.name msg in
  if not (Hashtbl.mem st.seen msg) then begin
    Hashtbl.add st.seen msg ();
    st.msgs <- msg :: st.msgs
  end

let ekey (e : G.edge) = (e.src, e.dst, e.kind)

let kind_name = function
  | G.Taken -> "taken"
  | G.Fallthru -> "fall"
  | G.Uncond -> "uncond"
  | G.Switch i -> Printf.sprintf "switch.%d" i

let edge_name (e : G.edge) =
  Printf.sprintf "%s edge B%d->B%d" (kind_name e.kind) e.src e.dst

let get_edge st e = Hashtbl.find_opt st.edges (ekey e)

let set_edge st e v =
  if v < 0 then
    report st (Printf.sprintf "%s has negative count %d" (edge_name e) v)
  else
    match get_edge st e with
    | None ->
      Hashtbl.add st.edges (ekey e) v;
      st.dirty <- true
    | Some v0 ->
      if v0 <> v then
        report st
          (Printf.sprintf "%s counted %d but flow requires %d" (edge_name e)
             v0 v)

let set_cnt st b v =
  if v < 0 then
    report st (Printf.sprintf "block B%d has negative count %d" b v)
  else
    match st.cnt.(b) with
    | None ->
      st.cnt.(b) <- Some v;
      st.dirty <- true
    | Some v0 ->
      if v0 <> v then
        report st
          (Printf.sprintf "block B%d: count %d inconsistent with %d" b v0 v)

let set_entries st v =
  if v < 0 then
    report st (Printf.sprintf "entry count is negative (%d)" v)
  else
    match st.entries with
    | None ->
      st.entries <- Some v;
      st.dirty <- true
    | Some v0 ->
      if v0 <> v then
        report st
          (Printf.sprintf "entry count %d inconsistent with %d" v0 v)

(* Seed the observed facts: every conditional branch fixes its block's
   count and both outgoing edge counts. *)
let seed st ~taken ~fall =
  for b = 0 to st.g.nblocks - 1 do
    match G.branch_edges st.g b with
    | None -> ()
    | Some (te, fe) ->
      let pc = st.g.last.(b) in
      set_cnt st b (taken.(pc) + fall.(pc));
      set_edge st te taken.(pc);
      set_edge st fe fall.(pc)
  done

(* One propagation sweep; sets [st.dirty] when it learns anything. *)
let sweep st =
  let g = st.g in
  for b = 0 to g.nblocks - 1 do
    (* outgoing: block count vs the sum of out-edges *)
    (match g.succs.(b) with
    | [] -> ()
    | succs -> begin
      let known_sum = ref 0 and unknown = ref [] in
      List.iter
        (fun e ->
          match get_edge st e with
          | Some v -> known_sum := !known_sum + v
          | None -> unknown := e :: !unknown)
        succs;
      match st.cnt.(b), !unknown with
      | Some c, [ e ] -> set_edge st e (c - !known_sum)
      | Some _, [] -> set_cnt st b !known_sum (* consistency check *)
      | None, [] -> set_cnt st b !known_sum
      | _ -> ()
    end);
    (* incoming: block count vs the sum of in-edges (plus the external
       entry for block 0) *)
    let preds = g.preds.(b) in
    let inflow =
      List.fold_left
        (fun acc e ->
          match (acc, get_edge st e) with
          | Some s, Some v -> Some (s + v)
          | _ -> None)
        (Some 0) preds
    in
    match inflow with
    | None -> ()
    | Some s ->
      if b = G.entry g then begin
        match (st.entries, st.cnt.(b)) with
        | Some en, _ -> set_cnt st b (en + s)
        | None, Some c -> set_entries st (c - s)
        | None, None -> ()
      end
      else set_cnt st b s
  done

let fixpoint st =
  st.dirty <- true;
  while st.dirty do
    st.dirty <- false;
    sweep st
  done

let make_state name g ~entries ~taken ~fall =
  let st =
    {
      name;
      g;
      cnt = Array.make g.nblocks None;
      entries;
      edges = Hashtbl.create 64;
      msgs = [];
      seen = Hashtbl.create 8;
      dirty = false;
    }
  in
  seed st ~taken ~fall;
  st

(* Execution counts of a procedure's exit blocks, split into returns
   and halts; [None] while any involved block is undetermined. *)
let exit_counts st =
  let g = st.g in
  let rets = ref (Some 0) and halts = ref (Some 0) in
  for b = 0 to g.nblocks - 1 do
    if g.succs.(b) = [] then begin
      let into cell =
        match (!cell, st.cnt.(b)) with
        | Some s, Some c -> cell := Some (s + c)
        | _ -> cell := None
      in
      match G.terminator g b with
      | Mips.Insn.Halt -> into halts
      | _ -> into rets
    end
  done;
  (!rets, !halts)

let check_program (prog : Mips.Program.t) ~taken ~fall =
  let graphs = Array.map G.build prog.procs in
  let states =
    Array.mapi
      (fun i g ->
        let entries = if i = prog.entry then Some 1 else None in
        make_state prog.procs.(i).name g ~entries ~taken:taken.(i)
          ~fall:fall.(i))
      graphs
  in
  (* Interprocedural closure: a procedure is entered once per executed
     call site (plus once for the program entry). *)
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter fixpoint states;
    Array.iteri
      (fun callee_idx st ->
        let callsum = ref (Some 0) in
        Array.iteri
          (fun caller_idx (p : Mips.Program.proc) ->
            let cst = states.(caller_idx) in
            Array.iteri
              (fun pc ins ->
                match ins with
                | Mips.Insn.Jal name
                  when Mips.Program.proc_index prog name = callee_idx -> begin
                  let b = cst.g.block_of_instr.(pc) in
                  match (!callsum, cst.cnt.(b)) with
                  | Some s, Some c -> callsum := Some (s + c)
                  | _ -> callsum := None
                end
                | _ -> ())
              p.body)
          prog.procs;
        match !callsum with
        | None -> ()
        | Some calls ->
          let expected = calls + if callee_idx = prog.entry then 1 else 0 in
          let before = st.entries in
          set_entries st expected;
          if before = None && st.entries <> None then progress := true)
      states
  done;
  (* Exit balance: without any Halt executed, every invocation returns,
     including the program entry's final return (where the machine
     stops). *)
  let total_halts =
    Array.fold_left
      (fun acc st ->
        match (acc, snd (exit_counts st)) with
        | Some a, Some h -> Some (a + h)
        | _ -> None)
      (Some 0) states
  in
  if total_halts = Some 0 then
    Array.iter
      (fun st ->
        match (st.entries, fst (exit_counts st)) with
        | Some en, Some rets ->
          if en <> rets then
            report st
              (Printf.sprintf "entered %d times but returned %d times" en
                 rets)
        | _ -> ())
      states;
  List.concat_map (fun st -> List.rev st.msgs) (Array.to_list states)
