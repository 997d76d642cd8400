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


(* --- shared block predicates ------------------------------------- *)

(* "unconditionally passes control to a block that ..." — one hop, the
   heuristics look at most two steps from the branch. *)
let uncond_succ = Cfg.Graph.single_uncond_succ

(* Index of the latest [Fcmp] in the block: it set the flag a
   coprocessor branch at the block's end tests. *)
let last_fcmp (g : Cfg.Graph.t) block =
  let rec back i =
    if i < g.first.(block) then None
    else
      match g.proc.body.(i) with
      | Mips.Insn.Fcmp _ -> Some i
      | _ -> back (i - 1)
  in
  back g.last.(block)

let branch_operands (a : Cfg.Analysis.t) block =
  let g = a.graph in
  let last = g.last.(block) in
  let imask = a.use_mask.(last) land lnot 1 (* not $zero *) in
  let fmask =
    match g.proc.body.(last) with
    | Mips.Insn.Bfp _ -> (
      match last_fcmp g block with Some i -> a.fuse_mask.(i) | None -> 0)
    | _ -> 0
  in
  (imask, fmask)

let uses_before_def (a : Cfg.Analysis.t) s ~imask ~fmask =
  let last = a.graph.last.(s) in
  let rec scan i live_i live_f =
    i <= last
    && (live_i lor live_f <> 0)
    && (a.use_mask.(i) land live_i <> 0
       || a.fuse_mask.(i) land live_f <> 0
       || scan (i + 1)
            (live_i land lnot a.def_mask.(i))
            (live_f land lnot a.fdef_mask.(i)))
  in
  scan a.graph.first.(s) imask fmask

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
    match Option.map (fun i -> a.graph.proc.body.(i)) (last_fcmp a.graph block) with
    | Some (Mips.Insn.Fcmp (Mips.Insn.Feq, _, _)) ->
      Some (not sense) (* equality is usually false *)
    | _ -> None
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
    a.has_call.(s)
    || match uncond_succ a.graph s with
       | Some s' -> a.has_call.(s') && Cfg.Analysis.dominates a s s'
       | None -> false
  in
  let prop s = leads_to_call s && not (Cfg.Analysis.postdominates a s block) in
  by_property ~predict_with:false prop ~taken ~fall

let return_heuristic (a : Cfg.Analysis.t) ~block ~taken ~fall =
  ignore block;
  let prop s =
    a.has_return.(s)
    || match uncond_succ a.graph s with
       | Some s' -> a.has_return.(s')
       | None -> false
  in
  by_property ~predict_with:false prop ~taken ~fall

let guard_heuristic (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let imask, fmask = branch_operands a block in
  if imask lor fmask = 0 then None
  else
    let prop s =
      uses_before_def a s ~imask ~fmask
      && not (Cfg.Analysis.postdominates a s block)
    in
    by_property ~predict_with:true prop ~taken ~fall

let store_heuristic (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let prop s =
    a.has_store.(s) && not (Cfg.Analysis.postdominates a s block)
  in
  by_property ~predict_with:false prop ~taken ~fall

(* Pointer comparisons: [beq]/[bne] whose operands were (all) defined
   by loads in this block, not off $gp, with no intervening call. *)
let point_heuristic (a : Cfg.Analysis.t) ~block =
  let g = a.graph in
  (* Over the insns before the terminator, three register masks:
     [loaded] holds a load's result not since redefined, [ptr] those
     loaded off a base other than $gp, [called] those with a call
     between the load and the branch. *)
  let loaded = ref 0 and ptr = ref 0 and called = ref 0 in
  for i = g.first.(block) to g.last.(block) - 1 do
    let ins = g.proc.body.(i) in
    match ins with
    | Mips.Insn.Lw (rt, _, base) ->
      let bit = 1 lsl Mips.Reg.to_int rt in
      loaded := !loaded lor bit;
      called := !called land lnot bit;
      if Mips.Reg.equal base Mips.Reg.gp then ptr := !ptr land lnot bit
      else ptr := !ptr lor bit
    | _ when Mips.Insn.is_call ins -> called := !called lor !loaded
    | _ -> loaded := !loaded land lnot a.def_mask.(i)
  done;
  let loaded_ptr r =
    let bit = 1 lsl Mips.Reg.to_int r in
    !loaded land !ptr land lnot !called land bit <> 0
  in
  let check rs rt =
    let zero = Mips.Reg.zero in
    if Mips.Reg.equal rt zero then loaded_ptr rs
    else if Mips.Reg.equal rs zero then loaded_ptr rt
    else loaded_ptr rs && loaded_ptr rt
  in
  match Cfg.Graph.terminator g block with
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
