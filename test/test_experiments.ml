(* Experiment-layer tests: statistics, table rendering, and the
   reproduction drivers (checked against the paper's qualitative
   claims, since absolute numbers depend on the synthetic suite). *)

open Check

(* ---- stats ---- *)

let test_stats () =
  checkb "mean" true (abs_float (Experiments.Stats.mean [ 1.; 2.; 3. ] -. 2.) < 1e-9);
  checkb "mean skips nan" true
    (abs_float (Experiments.Stats.mean [ 1.; Float.nan; 3. ] -. 2.) < 1e-9);
  checkb "mean empty is nan" true (Float.is_nan (Experiments.Stats.mean []));
  checkb "stddev" true
    (abs_float (Experiments.Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] -. 2.)
    < 1e-9);
  checkb "stddev singleton" true (Experiments.Stats.stddev [ 5. ] = 0.);
  let sorted = [| 1.; 2.; 3.; 4. |] in
  checkb "median" true
    (abs_float (Experiments.Stats.percentile sorted 0.5 -. 2.5) < 1e-9);
  checkb "p0" true (Experiments.Stats.percentile sorted 0. = 1.);
  checkb "p100" true (Experiments.Stats.percentile sorted 1. = 4.)

(* ---- text tables ---- *)

let test_texttab () =
  checks "pct" "22" (Experiments.Texttab.pct 0.224);
  checks "pct nan" "-" (Experiments.Texttab.pct Float.nan);
  checks "pct1" "22.4" (Experiments.Texttab.pct1 0.224);
  checks "ratio" "22/15" (Experiments.Texttab.ratio 0.224 0.151);
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.Texttab.render ppf ~header:[ "a"; "bb" ]
    [ [ "xxx"; "1" ]; [ "y" ] ];
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  checkb "has header" true (String.length out > 0);
  (* all lines padded to equal width for full rows *)
  let lines = String.split_on_char '\n' out in
  checkb "four lines" true (List.length (List.filter (fun l -> l <> "") lines) = 4)

(* ---- drivers agree with the paper's qualitative claims ---- *)

let load name = Experiments.Bench_run.load (Workloads.Registry.find name)

let all_branch_miss predictor r =
  Predict.Metrics.miss_rate predictor
    (Array.to_list (r : Experiments.Bench_run.t).db.branches)

let test_headline_claims () =
  let rs = Experiments.Bench_run.load_all () in
  let order = Predict.Combined.paper_order in
  let mean f = Experiments.Stats.mean (List.map f rs) in
  let perfect =
    mean (fun r -> Predict.Metrics.perfect_rate (Array.to_list r.db.branches))
  in
  let heur = mean (all_branch_miss (Predict.Combined.predict order)) in
  let looprand = mean (all_branch_miss Predict.Combined.loop_rand_predict) in
  (* perfect static prediction reaches ~10% miss on all branches *)
  checkb "perfect under 15%" true (perfect < 0.15);
  (* the combined heuristic lands between perfect and Loop+Rand *)
  checkb "heuristic beats Loop+Rand" true (heur < looprand);
  checkb "heuristic under 30%" true (heur < 0.30);
  checkb "heuristic above perfect" true (heur > perfect)

let test_non_loop_claims () =
  let rs = Experiments.Bench_run.load_all () in
  let mean f = Experiments.Stats.mean (List.map f rs) in
  let nl r = Predict.Database.non_loop_branches r.Experiments.Bench_run.db in
  let rnd =
    mean (fun r ->
        Predict.Metrics.miss_rate (fun b -> b.Predict.Database.rand_pred) (nl r))
  in
  let tgt = mean (fun r -> Predict.Metrics.miss_rate (fun _ -> true) (nl r)) in
  let heur =
    mean (fun r ->
        Predict.Metrics.miss_rate
          (fun b ->
            fst (Predict.Combined.predict_non_loop Predict.Combined.paper_order b))
          (nl r))
  in
  (* naive strategies hover near 50% on non-loop branches *)
  checkb "random near 50%" true (rnd > 0.35 && rnd < 0.65);
  checkb "target near 50%" true (tgt > 0.30 && tgt < 0.65);
  (* the heuristics do far better *)
  checkb "heuristic well below naive" true (heur < rnd -. 0.10)

let test_tomcatv_story () =
  (* Section 4's flagship anecdote: on tomcatv the Guard heuristic
     mispredicts the two hot max-update branches and the Store
     heuristic predicts them perfectly *)
  let r = load "tomcatv" in
  let nl = Predict.Database.non_loop_branches r.db in
  let guard b = b.Predict.Database.heur.(Predict.Heuristic.to_int Guard) in
  let store b = b.Predict.Database.heur.(Predict.Heuristic.to_int Store) in
  let guard = Predict.Metrics.tally guard nl in
  let store = Predict.Metrics.tally store nl in
  checkb "guard coverage high" true (Predict.Metrics.coverage guard > 0.9);
  checkb "guard miss extreme" true (Predict.Metrics.miss guard > 0.9);
  checkb "store miss tiny" true (Predict.Metrics.miss store < 0.1)

let test_loop_predictor_quality () =
  (* the loop predictor approaches perfect on loop branches for
     loop-dominated benchmarks *)
  List.iter
    (fun name ->
      let r = load name in
      let lp = Predict.Database.loop_branches r.db in
      let miss =
        Predict.Metrics.miss_rate (fun b -> b.Predict.Database.loop_pred) lp
      in
      checkb (name ^ " loop miss under 15%") true (miss < 0.15))
    [ "matrix300"; "tomcatv"; "dnasa7"; "grep" ]

let test_forward_loop_branches_exist () =
  (* Section 3: many loop branches are NOT backward branches — the
     rotated-loop guard/exit structure guarantees it in this suite *)
  let rs = Experiments.Bench_run.load_all () in
  let some_forward =
    List.exists
      (fun (r : Experiments.Bench_run.t) ->
        List.exists
          (fun (b : Predict.Database.branch) -> not b.backward)
          (Predict.Database.loop_branches r.db))
      rs
  in
  checkb "forward loop branches exist" true some_forward

let test_graph13_stability () =
  (* Section 7: heuristic predictions are identical across datasets,
     and the miss rate is reasonably stable for the pointer-heavy
     benchmarks the paper calls out *)
  List.iter
    (fun name ->
      let r = load name in
      let order = Predict.Combined.paper_order in
      let rates =
        List.map
          (fun ds ->
            let db = Experiments.Bench_run.db_for r ds in
            Predict.Metrics.miss_rate (Predict.Combined.predict order)
              (Array.to_list db.branches))
          r.wl.datasets
      in
      match rates with
      | first :: rest ->
        List.iter
          (fun rate ->
            checkb (name ^ " stable across datasets") true
              (abs_float (rate -. first) < 0.15))
          rest
      | [] -> Alcotest.fail "no datasets")
    [ "gcc"; "xlisp"; "compress"; "doduc" ]

let test_miss_matrix_bounds () =
  let m, rs = Experiments.Orderings.miss_matrix_cached () in
  checki "22 benchmarks (matrix300 dropped)" 22 (Array.length m);
  checki "rows match" (List.length rs) (Array.length m);
  Array.iter
    (fun row ->
      checki "5040 orders" 5040 (Array.length row);
      Array.iter
        (fun v -> checkb "rate in [0,1]" true (v >= 0. && v <= 1.))
        row)
    m

let test_best_order_at_least_as_good_as_paper () =
  let m, _ = Experiments.Orderings.miss_matrix_cached () in
  let _, best_v = Predict.Ordering.best_order (Predict.Ordering.averages m) in
  let paper_idx = Predict.Ordering.index_of_order Predict.Combined.paper_order in
  let nb = Array.length m in
  let paper_avg =
    Array.fold_left (fun acc row -> acc +. row.(paper_idx)) 0. m
    /. float_of_int nb
  in
  checkb "best <= paper order" true (best_v <= paper_avg +. 1e-12)

let test_trace_ipbc_relationships () =
  (* run the trace analysis on one hard benchmark and check the
     Section 6 relationships *)
  let r = load "gcc" in
  let results =
    Sim.Trace_run.run r.prog
      (Workloads.Workload.primary_dataset r.wl)
      (Experiments.Traces.predictors_for r)
  in
  let dist label =
    Tracing.Ipbc.of_result
      (List.find (fun (x : Sim.Trace_run.result) -> x.label = label) results)
  in
  let perfect = dist "Perfect" in
  let heur = dist "Heuristic" in
  let lr = dist "Loop+Rand" in
  checkb "perfect misses least" true
    (perfect.miss_rate <= heur.miss_rate && heur.miss_rate <= lr.miss_rate);
  checkb "perfect ipbc longest" true
    (perfect.ipbc >= heur.ipbc && heur.ipbc >= lr.ipbc);
  checkb "dividing length ordered" true
    (Tracing.Ipbc.dividing_length perfect >= Tracing.Ipbc.dividing_length lr)

(* ---- the load stage runs once per reset ---- *)

let test_load_all_once () =
  let was = Obs.enabled () in
  Experiments.Bench_run.reset ();
  Obs.reset_events ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was then Obs.disable ();
      Obs.reset_events ())
    (fun () ->
      let jobs = Obs.Metrics.counter "pool.jobs" in
      let first = Experiments.Bench_run.load_all () in
      let jobs_before = Obs.Metrics.value jobs in
      let second = Experiments.Bench_run.load_all () in
      checki "second call runs no pool job" jobs_before
        (Obs.Metrics.value jobs);
      checkb "same list" true (first == second);
      checki "one stage.load_all span" 1
        (List.length
           (List.filter
              (fun (e : Obs.event) -> e.name = "stage.load_all")
              (Obs.events ()))))

(* A cold trace stage records one [trace] span per traced workload,
   attributed to the workload and its primary dataset. *)
let test_trace_spans () =
  let was = Obs.enabled () and stored = Cache.Store.enabled () in
  Experiments.Bench_run.reset ();
  Cache.Store.set_enabled false;
  Obs.reset_events ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was then Obs.disable ();
      Cache.Store.set_enabled stored;
      Obs.reset_events ())
    (fun () ->
      Experiments.Traces.warm ();
      let attrs =
        List.filter_map
          (fun (e : Obs.event) ->
            if e.name = "trace" then Some e.attrs else None)
          (Obs.events ())
      in
      let expected =
        List.map
          (fun (wl : Workloads.Workload.t) ->
            [ ("workload", wl.name);
              ("dataset", (Workloads.Workload.primary_dataset wl).name) ])
          (Workloads.Registry.traced ())
      in
      checkb "one trace span per traced workload" true
        (List.sort compare attrs = List.sort compare expected))

let span_count name =
  List.length
    (List.filter (fun (e : Obs.event) -> e.name = name) (Obs.events ()))

(* The quick prewarm fills every table the quick suite reads: with the
   store off, rendering all 25 experiments afterwards compiles,
   profiles, traces and walks nothing. *)
let test_prewarm_fills_render () =
  let was = Obs.enabled () and stored = Cache.Store.enabled () in
  Cache.Store.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      if not was then Obs.disable ();
      Cache.Store.set_enabled stored;
      Obs.reset_events ())
    (fun () ->
      Experiments.Driver.prewarm ~quick:true ();
      Obs.reset_events ();
      Obs.enable ();
      let steps = metric "subset.column_steps" in
      let buf = Buffer.create (1 lsl 16) in
      let ppf = Format.formatter_of_buffer buf in
      let s =
        Experiments.Driver.run_list ~quick:true ~warm:false
          Experiments.Driver.all ppf
      in
      checki "no experiment failed" 0 s.failed;
      List.iter
        (fun name -> checki (name ^ " spans in the render") 0 (span_count name))
        [ "compile"; "profile"; "trace" ];
      checki "25 experiment spans" 25 (span_count "experiment");
      checki "subset.column_steps unchanged" steps
        (metric "subset.column_steps"))

(* On a warm store the quick prewarm and render read and print: they
   build no miss matrix (no [miss_matrix] span, which a cold run
   records once), compile, profile and trace nothing, and miss the
   store nowhere; the prewarm still opens [stage.miss_matrix] around
   the stored averages. *)
let test_warm_builds_no_matrix () =
  let was = Obs.enabled () in
  let traced_suite () =
    Experiments.Bench_run.reset ();
    Obs.Metrics.reset ();
    Obs.reset_events ();
    Obs.enable ();
    Fun.protect ~finally:Obs.disable (fun () ->
        Experiments.Driver.prewarm ~quick:true ();
        let buf = Buffer.create (1 lsl 16) in
        let ppf = Format.formatter_of_buffer buf in
        let s =
          Experiments.Driver.run_list ~quick:true ~warm:false
            Experiments.Driver.all ppf
        in
        Format.pp_print_flush ppf ();
        checki "no experiment failed" 0 s.failed;
        Buffer.contents buf)
  in
  Fun.protect
    ~finally:(fun () ->
      if was then Obs.enable ();
      Obs.reset_events ();
      Experiments.Bench_run.reset ())
    (fun () ->
      with_isolated_store "test" (fun _dir ->
          let cold = traced_suite () in
          checki "cold: one matrix build" 1 (span_count "miss_matrix");
          let warm = traced_suite () in
          checks "warm tables = cold tables" cold warm;
          checki "warm: no matrix build" 0 (span_count "miss_matrix");
          checki "warm: one stage.miss_matrix span" 1
            (span_count "stage.miss_matrix");
          List.iter
            (fun name -> checki ("warm: no " ^ name ^ " span") 0 (span_count name))
            [ "compile"; "profile"; "trace" ];
          checki "warm: no disk miss" 0 (metric "cache.miss")))

(* The render fans out across the pool but prints in list order: a
   list whose slow members finish last, with a raising member in the
   middle, prints the same bytes at width 1 and 3, the failure banner
   in the raising member's slot. *)
let test_render_order () =
  let exp id run =
    { Experiments.Driver.id; title = "T " ^ id; run; quick_run = None }
  in
  let slow id ppf =
    Unix.sleepf 0.02;
    Format.fprintf ppf "%s done@." id
  in
  let exps =
    [
      exp "a" (slow "a");
      exp "b" (fun ppf -> Format.fprintf ppf "b done@.");
      exp "boom" (fun ppf ->
          Format.fprintf ppf "partial@.";
          failwith "boom");
      exp "c" (slow "c");
      exp "graph12" Experiments.Traces.graph12;
      exp "d" (fun ppf -> Format.fprintf ppf "d done@.");
    ]
  in
  let render jobs =
    Par.Pool.with_jobs jobs @@ fun () ->
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    let s = Experiments.Driver.run_list ~warm:false exps ppf in
    Format.pp_print_flush ppf ();
    (Buffer.contents buf, s)
  in
  let out1, s1 = render 1 in
  let out3, s3 = render 3 in
  checks "width 1 = width 3" out1 out3;
  checki "one failure" 1 s3.failed;
  checkb "same results" true
    (List.map fst s1.results = List.map fst s3.results
    && List.map fst s3.results = List.map (fun e -> e.Experiments.Driver.id) exps);
  let at needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length out3 then Alcotest.fail ("missing " ^ needle)
      else if String.sub out3 i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  checkb "banner in its slot" true
    (at "==== T b ====" < at "==== T boom ===="
    && at "==== T boom ====" < at "!! boom FAILED [hard]: Failure(\"boom\")"
    && at "!! boom FAILED" < at "==== T c ====");
  checkb "no partial table" false (contains out3 "partial")

let tests =
  [
    ( "stats",
      [
        Alcotest.test_case "basics" `Quick test_stats;
        Alcotest.test_case "texttab" `Quick test_texttab;
      ] );
    ( "pipeline",
      [
        Alcotest.test_case "load_all once per reset" `Quick
          test_load_all_once;
        Alcotest.test_case "trace span per traced workload" `Quick
          test_trace_spans;
        Alcotest.test_case "prewarm fills the render" `Quick
          test_prewarm_fills_render;
        Alcotest.test_case "render order at any width" `Quick
          test_render_order;
        Alcotest.test_case "warm run builds no matrix" `Quick
          test_warm_builds_no_matrix;
      ] );
    ( "paper claims",
      [
        Alcotest.test_case "headline" `Quick test_headline_claims;
        Alcotest.test_case "non-loop" `Quick test_non_loop_claims;
        Alcotest.test_case "tomcatv" `Quick test_tomcatv_story;
        Alcotest.test_case "loop predictor" `Quick test_loop_predictor_quality;
        Alcotest.test_case "forward loop branches" `Quick
          test_forward_loop_branches_exist;
        Alcotest.test_case "dataset stability" `Slow test_graph13_stability;
      ] );
    ( "orderings",
      [
        Alcotest.test_case "miss matrix" `Slow test_miss_matrix_bounds;
        Alcotest.test_case "best vs paper" `Slow
          test_best_order_at_least_as_good_as_paper;
      ] );
    ( "traces",
      [
        Alcotest.test_case "ipbc relationships" `Slow
          test_trace_ipbc_relationships;
      ] );
  ]
