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
  let imask, fmask = Heuristic.branch_operands a block in
  if imask lor fmask = 0 then None
  else begin
    let defines s =
      let rec scan i =
        i <= g.last.(s)
        && (a.def_mask.(i) land imask <> 0
           || a.fdef_mask.(i) land fmask <> 0
           || scan (i + 1))
      in
      scan g.first.(s)
    in
    let rec uses_within depth s =
      Heuristic.uses_before_def a s ~imask ~fmask
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
