type cls = Loop_branch | Non_loop_branch

let pp_cls ppf = function
  | Loop_branch -> Format.pp_print_string ppf "loop"
  | Non_loop_branch -> Format.pp_print_string ppf "non-loop"

let classify (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let edge_is dst =
    Cfg.Loops.is_backedge a.loops ~src:block ~dst
    || Cfg.Loops.is_exit_edge a.loops ~src:block ~dst
  in
  if edge_is taken || edge_is fall then Loop_branch else Non_loop_branch

(* Number of natural loops containing both the branch and [dst]. *)
let retained_loops (a : Cfg.Analysis.t) block dst =
  List.length
    (List.filter
       (fun h -> Cfg.Loops.in_loop a.loops ~head:h dst)
       (Cfg.Loops.loops_containing a.loops block))

let loop_predict (a : Cfg.Analysis.t) ~block ~taken ~fall =
  let back dst = Cfg.Loops.is_backedge a.loops ~src:block ~dst in
  let exit dst = Cfg.Loops.is_exit_edge a.loops ~src:block ~dst in
  match back taken, back fall with
  | true, false -> true
  | false, true -> false
  | true, true ->
    (* Both backedges (never observed in the paper's benchmarks):
       prefer the innermost loop. *)
    Cfg.Loops.loop_depth a.loops taken >= Cfg.Loops.loop_depth a.loops fall
  | false, false -> begin
    match exit taken, exit fall with
    | true, false -> false (* predict the non-exit (fall-through) edge *)
    | false, true -> true
    | true, true ->
      (* Both exit some loop: stay in as many loops as possible. *)
      retained_loops a block taken >= retained_loops a block fall
    | false, false -> true (* not a loop branch; arbitrary *)
  end

let is_backward (g : Cfg.Graph.t) ~block ~taken =
  g.first.(taken) <= g.last.(block)
