type t = Distance | Postdom | Dominated | Guard_deep

let all = [ Distance; Postdom; Dominated; Guard_deep ]

let name = function
  | Distance -> "Distance"
  | Postdom -> "Postdom"
  | Dominated -> "Dominated"
  | Guard_deep -> "Guard+"

let distance (a : Cfg.Analysis.t) ~block ~taken ~fall =
  ignore fall;
  (* predict the closer successor: the taken target when the jump is
     short, the fall-through (distance 1) otherwise *)
  let g = a.graph in
  let disp = abs (g.first.(taken) - g.last.(block)) in
  if disp <= 4 then Some true else Some false

let postdom (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let prop s = Cfg.Analysis.postdominates a s block in
  Heuristic.by_property ~predict_with:true prop ~taken ~fall

let dominated (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let prop s = s <> block && Cfg.Analysis.dominates a block s in
  Heuristic.by_property ~predict_with:true prop ~taken ~fall

(* The Guard heuristic, also looking one unconditional hop deeper when
   the immediate successor neither uses nor clobbers the operands. *)
let guard_deep (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let g = a.graph in
  let iregs, fregs = Heuristic.branch_operands g block in
  if iregs = [] && fregs = [] then None
  else begin
    let defines s =
      List.exists
        (fun ins ->
          List.exists
            (fun r -> List.exists (Mips.Reg.equal r) (Mips.Insn.defs ins))
            iregs
          || List.exists
               (fun r -> List.exists (Mips.Freg.equal r) (Mips.Insn.fdefs ins))
               fregs)
        (Cfg.Graph.block_insns g s)
    in
    let rec uses_within depth s =
      Heuristic.uses_before_def g s iregs fregs
      || (depth > 0 && (not (defines s))
         &&
         match Cfg.Graph.single_uncond_succ g s with
         | Some s' -> uses_within (depth - 1) s'
         | None -> false)
    in
    let prop s =
      uses_within 1 s && not (Cfg.Analysis.postdominates a s block)
    in
    Heuristic.by_property ~predict_with:true prop ~taken ~fall
  end

let apply h a ~block ~taken ~fall =
  match h with
  | Distance -> distance a ~block ~taken ~fall
  | Postdom -> postdom a ~block ~taken ~fall
  | Dominated -> dominated a ~block ~taken ~fall
  | Guard_deep -> guard_deep a ~block ~taken ~fall
