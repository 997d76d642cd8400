type t = Opcode | Loop | Call | Return | Guard | Store | Point

let all = [ Opcode; Loop; Call; Return; Guard; Store; Point ]
let count = 7

let to_int = function
  | Opcode -> 0 | Loop -> 1 | Call -> 2 | Return -> 3
  | Guard -> 4 | Store -> 5 | Point -> 6

let of_int = function
  | 0 -> Opcode | 1 -> Loop | 2 -> Call | 3 -> Return
  | 4 -> Guard | 5 -> Store | 6 -> Point
  | n -> invalid_arg (Printf.sprintf "Heuristic.of_int: %d" n)

let name = function
  | Opcode -> "Opcode" | Loop -> "Loop" | Call -> "Call" | Return -> "Return"
  | Guard -> "Guard" | Store -> "Store" | Point -> "Point"

let pp ppf h = Format.pp_print_string ppf (name h)

(* --- shared block predicates ------------------------------------- *)

let block_contains g b p = List.exists p (Cfg.Graph.block_insns g b)

let contains_call g b = block_contains g b Mips.Insn.is_call
let contains_return g b = block_contains g b Mips.Insn.is_return
let contains_store g b = block_contains g b Mips.Insn.is_store

(* "unconditionally passes control to a block that ..." — one hop, the
   heuristics look at most two steps from the branch. *)
let uncond_succ = Cfg.Graph.single_uncond_succ

let branch_operands g block =
  let term = Cfg.Graph.terminator g block in
  let iregs =
    List.filter
      (fun r -> not (Mips.Reg.equal r Mips.Reg.zero))
      (Mips.Insn.uses term)
  in
  let fregs =
    match term with
    | Mips.Insn.Bfp _ ->
      (* The flag was set by the latest compare in this block. *)
      let rec last_cmp acc = function
        | [] -> acc
        | Mips.Insn.Fcmp (_, fs, ft) :: rest -> last_cmp [ fs; ft ] rest
        | _ :: rest -> last_cmp acc rest
      in
      last_cmp [] (Cfg.Graph.block_insns g block)
    | _ -> []
  in
  (iregs, fregs)

(* Does block [s] use one of [iregs]/[fregs] before defining it? *)
let uses_before_def g s iregs fregs =
  let live_i = ref iregs and live_f = ref fregs in
  let found = ref false in
  List.iter
    (fun ins ->
      if not !found then begin
        let used r = List.exists (Mips.Reg.equal r) !live_i in
        let fused r = List.exists (Mips.Freg.equal r) !live_f in
        if List.exists used (Mips.Insn.uses ins)
           || List.exists fused (Mips.Insn.fuses ins)
        then found := true
        else begin
          live_i :=
            List.filter
              (fun r -> not (List.exists (Mips.Reg.equal r) (Mips.Insn.defs ins)))
              !live_i;
          live_f :=
            List.filter
              (fun r ->
                not (List.exists (Mips.Freg.equal r) (Mips.Insn.fdefs ins)))
              !live_f
        end
      end)
    (Cfg.Graph.block_insns g s);
  !found

(* Apply a (selection property, which-successor) pair: predict only
   when exactly one successor has the property. *)
let by_property ~predict_with prop ~taken ~fall =
  match prop taken, prop fall with
  | true, false -> Some predict_with
  | false, true -> Some (not predict_with)
  | true, true | false, false -> None

(* --- the heuristics ----------------------------------------------- *)

let opcode (a : Cfg.Analysis.t) ~block =
  match Cfg.Graph.terminator a.graph block with
  | Mips.Insn.Bz ((Ltz | Lez), _, _) -> Some false
  | Mips.Insn.Bz ((Gtz | Gez), _, _) -> Some true
  | Mips.Insn.Bfp (sense, _) -> begin
    (* Only equality comparisons are predicted. *)
    let rec last_cmp acc = function
      | [] -> acc
      | Mips.Insn.Fcmp (c, _, _) :: rest -> last_cmp (Some c) rest
      | _ :: rest -> last_cmp acc rest
    in
    match last_cmp None (Cfg.Graph.block_insns a.graph block) with
    | Some Mips.Insn.Feq -> Some (not sense) (* equality is usually false *)
    | Some (Mips.Insn.Flt | Mips.Insn.Fle) | None -> None
  end
  | _ -> None

let loop_heuristic (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let prop s =
    (Cfg.Loops.is_loop_head a.loops s || Cfg.Loops.is_preheader a.loops s)
    && not (Cfg.Analysis.postdominates a s block)
  in
  by_property ~predict_with:true prop ~taken ~fall

let call_heuristic (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let leads_to_call s =
    contains_call a.graph s
    || match uncond_succ a.graph s with
       | Some s' -> contains_call a.graph s' && Cfg.Analysis.dominates a s s'
       | None -> false
  in
  let prop s = leads_to_call s && not (Cfg.Analysis.postdominates a s block) in
  by_property ~predict_with:false prop ~taken ~fall

let return_heuristic (a : Cfg.Analysis.t) ~block ~taken ~fall =
  ignore block;
  let prop s =
    contains_return a.graph s
    || match uncond_succ a.graph s with
       | Some s' -> contains_return a.graph s'
       | None -> false
  in
  by_property ~predict_with:false prop ~taken ~fall

let guard_heuristic (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let iregs, fregs = branch_operands a.graph block in
  if iregs = [] && fregs = [] then None
  else
    let prop s =
      uses_before_def a.graph s iregs fregs
      && not (Cfg.Analysis.postdominates a s block)
    in
    by_property ~predict_with:true prop ~taken ~fall

let store_heuristic (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let prop s =
    contains_store a.graph s && not (Cfg.Analysis.postdominates a s block)
  in
  by_property ~predict_with:false prop ~taken ~fall

(* Pointer comparisons: [beq]/[bne] whose operands were (all) defined
   by loads in this block, not off $gp, with no intervening call. *)
let point_heuristic (a : Cfg.Analysis.t) ~block =
  let insns = Cfg.Graph.block_insns a.graph block in
  (* state maps a register to (loaded off a non-$gp base, call seen
     between the load and the branch); only insns before the
     terminator are scanned. *)
  let state = Hashtbl.create 8 in
  let rec scan = function
    | [] | [ _ ] -> ()
    | ins :: rest ->
      (match ins with
      | Mips.Insn.Lw (rt, _, base) ->
        let ptr_like = not (Mips.Reg.equal base Mips.Reg.gp) in
        Hashtbl.replace state (Mips.Reg.to_int rt) (ptr_like, false)
      | _ when Mips.Insn.is_call ins ->
        let keys = Hashtbl.fold (fun r v acc -> (r, v) :: acc) state [] in
        List.iter (fun (r, (p, _)) -> Hashtbl.replace state r (p, true)) keys
      | _ ->
        List.iter
          (fun r -> Hashtbl.remove state (Mips.Reg.to_int r))
          (Mips.Insn.defs ins));
      scan rest
  in
  scan insns;
  let loaded_ptr r =
    match Hashtbl.find_opt state (Mips.Reg.to_int r) with
    | Some (ptr_like, call_between) -> ptr_like && not call_between
    | None -> false
  in
  let check rs rt =
    let zero = Mips.Reg.zero in
    if Mips.Reg.equal rt zero then loaded_ptr rs
    else if Mips.Reg.equal rs zero then loaded_ptr rt
    else loaded_ptr rs && loaded_ptr rt
  in
  match Cfg.Graph.terminator a.graph block with
  | Mips.Insn.Beq (rs, rt, _) when check rs rt -> Some false
  | Mips.Insn.Bne (rs, rt, _) when check rs rt -> Some true
  | _ -> None

let apply h (a : Cfg.Analysis.t) ~block ~taken ~fall =
  match h with
  | Opcode -> opcode a ~block
  | Loop -> loop_heuristic a ~block ~taken ~fall
  | Call -> call_heuristic a ~block ~taken ~fall
  | Return -> return_heuristic a ~block ~taken ~fall
  | Guard -> guard_heuristic a ~block ~taken ~fall
  | Store -> store_heuristic a ~block ~taken ~fall
  | Point -> point_heuristic a ~block
