type experiment = {
  id : string;
  title : string;
  run : Format.formatter -> unit;
  quick_run : (Format.formatter -> unit) option;
}

let exp ?quick_run id title run = { id; title; run; quick_run }

let traced_graph id name =
  exp id
    (Printf.sprintf "Graph (%s): sequence-length distribution" name)
    (fun ppf -> Traces.graph_for ppf name)

let all =
  [
    exp "table1" "Table 1: benchmark roster" Tables.table1;
    exp "table2" "Table 2: loop vs non-loop breakdown" Tables.table2;
    exp "table3" "Table 3: heuristics in isolation" Tables.table3;
    exp "graph1" "Graph 1: all 5040 orderings" Orderings.graph1;
    exp "graph2" "Graphs 2-3 and Table 4: subset experiment"
      (fun ppf -> Orderings.graph2_3_table4 ppf)
      ~quick_run:(fun ppf ->
        Orderings.graph2_3_table4 ~max_trials:Orderings.quick_max_trials ppf);
    exp "table5" "Table 5: prioritised heuristics" Tables.table5;
    exp "table6" "Table 6: final results" Tables.table6;
    exp "table7" "Table 7: summary" Tables.table7;
    traced_graph "graph4" "spice2g6";
    traced_graph "graph6" "gcc";
    traced_graph "graph7" "lcc";
    traced_graph "graph8" "qpt";
    traced_graph "graph9" "xlisp";
    traced_graph "graph10" "doduc";
    traced_graph "graph11" "fpppp";
    exp "graph12" "Graph 12: analytic model" Traces.graph12;
    exp "graph13" "Graph 13: other datasets" Datasets_exp.graph13;
    exp "loopshapes" "Section 3 support: forward loop branches"
      Tables.loop_shapes;
    exp "ablation-btfn" "Ablation: BTFN baseline" Ablation.btfn;
    exp "ablation-orders" "Ablation: ordering strategies" Ablation.pairwise;
    exp "ablation-seeds" "Ablation: default-coin seeds" Ablation.seeds;
    exp "ablation-opcode" "Ablation: opcode composition"
      Ablation.opcode_fusion;
    exp "ablation-profile" "Ablation: profile-based vs program-based"
      Ablation.profile_based;
    exp "ablation-layout" "Ablation: prediction-guided code layout"
      Ablation.layout;
    exp "ablation-ext" "Ablation: unsuccessful heuristics (Section 4.4)"
      Ablation.extended;
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all

(* Fill every memo table the experiments read from, fanning the
   independent per-workload pipelines (and the per-workload trace
   simulations, the per-dataset profiles, the per-order averages and
   the subset walk — capped as [--quick] caps it) across the default
   pool.  The experiments then only print.  On a warm store the miss
   matrix behind the averages and the walk is never built, but its
   stage still opens, around the averages. *)
let prewarm ?(quick = false) () =
  ignore (Bench_run.load_all ());
  Traces.warm ();
  Datasets_exp.warm ();
  ignore (Obs.span ~name:"stage.miss_matrix" Orderings.order_averages);
  let max_trials = if quick then Some Orderings.quick_max_trials else None in
  ignore (Orderings.subset_result ?max_trials ())

(* ---- supervised suite execution ---- *)

type summary = {
  passed : int;
  failed : int;
  results : (string * Robust.Supervise.status) list;
}

(* One experiment under the fault boundary.  The body renders into a
   private buffer, not the caller's formatter: a failed experiment
   leaves no partial table behind its failure banner. *)
let run_one ~quick e =
  Obs.span ~name:"experiment" ~attrs:[ ("id", e.id) ] (fun () ->
      Robust.Supervise.run ~label:e.id (fun () ->
          let buf = Buffer.create 4096 in
          let bppf = Format.formatter_of_buffer buf in
          (match e.quick_run with
          | Some quick_run when quick -> quick_run bppf
          | _ -> e.run bppf);
          Format.pp_print_flush bppf ();
          Buffer.contents buf))

let run_list ?(quick = false) ?(warm = true) exps ppf =
  (* A prewarm failure only costs parallel warmth — every
     experiment recomputes what it needs on demand — so it is reported
     on stderr and the suite proceeds with the tables untouched. *)
  if warm then
    (match Robust.Supervise.run ~label:"prewarm" (prewarm ~quick) with
    | { status = Failed fault; _ } ->
      Robust.Fault.pp_banner Format.err_formatter fault
    | _ -> ());
  (* The experiments render across the pool, each into its own
     buffer, and print in list order: the output is the sequential
     one at any width. *)
  let results =
    Obs.span ~name:"stage.render" @@ fun () ->
    let outcomes = Par.Pool.parallel_map_list (run_one ~quick) exps in
    List.map2
      (fun e (o : string Robust.Supervise.outcome) ->
        Format.fprintf ppf "==== %s ====@.@." e.title;
        (match o.status with
        | Completed -> Format.pp_print_string ppf (Option.get o.value)
        | Failed fault -> Robust.Fault.pp_banner ppf fault);
        Format.fprintf ppf "@.";
        (e.id, o.status))
      exps outcomes
  in
  let failed =
    List.length
      (List.filter (fun (_, s) -> s <> Robust.Supervise.Completed) results)
  in
  { passed = List.length results - failed; failed; results }

let exit_code s = if s.failed > 0 then 3 else 0

let pp_summary ppf s =
  Format.fprintf ppf "suite summary: %d passed, %d failed@." s.passed
    s.failed;
  List.iter
    (fun (id, r) ->
      match r with
      | Robust.Supervise.Completed -> ()
      | Failed (f : Robust.Fault.t) ->
        Format.fprintf ppf "  failed %s [%s]: %s@." id
          (Robust.Fault.kind_name f.kind) f.message)
    s.results
