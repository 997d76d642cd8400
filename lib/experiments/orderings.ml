(* The benchmarks of the ordering study: every workload but
   matrix300, in registry order. *)
let benchmarks () =
  List.filter
    (fun (r : Bench_run.t) -> not (String.equal r.wl.name "matrix300"))
    (Bench_run.load_all ())

(* Under one build fingerprint the matrix is a pure function of each
   benchmark's program and primary dataset, so the products derived
   from it are keyed by those 22 pairs, never by the matrix's own
   bytes. *)
let inputs rs =
  List.map
    (fun (r : Bench_run.t) ->
      (r.digest, Workloads.Workload.primary_dataset r.wl))
    rs

let matrices = Cache.Memo.create "orderings.miss_matrix"

let miss_matrix_cached () =
  Cache.Memo.find matrices () (fun () ->
      Obs.span ~name:"miss_matrix" (fun () ->
          let rs = benchmarks () in
          let dbs =
            Array.of_list (List.map (fun (r : Bench_run.t) -> r.db) rs)
          in
          (Predict.Ordering.miss_matrix dbs, rs)))

let averages = Cache.Memo.create ~persist:true "order_averages"

let order_averages () =
  Cache.Memo.find averages (inputs (benchmarks ())) (fun () ->
      Predict.Ordering.averages (fst (miss_matrix_cached ())))

let order_string idx =
  String.concat " "
    (List.map Predict.Heuristic.name (Predict.Ordering.order_of_index idx))

let graph1 ppf =
  Format.fprintf ppf
    "Graph 1: average non-loop miss rate for all 5040 orderings@.";
  Format.fprintf ppf "(matrix300 excluded; sorted by miss rate)@.@.";
  let avg = order_averages () in
  let sorted = Array.copy avg in
  Array.stable_sort Float.compare sorted;
  let n = Array.length sorted in
  let pick rank = sorted.(min (n - 1) rank) in
  let rows =
    List.map
      (fun rank ->
        [ string_of_int rank; Texttab.pct1 (pick rank) ])
      [ 0; 99; 499; 999; 1499; 1999; 2499; 2999; 3499; 3999; 4499; 4999; 5039 ]
  in
  Texttab.render ppf ~header:[ "rank"; "avg miss %" ] rows;
  Format.fprintf ppf
    "@.min %s%%  median %s%%  max %s%%  spread %s points@."
    (Texttab.pct1 sorted.(0))
    (Texttab.pct1 (Stats.percentile sorted 0.5))
    (Texttab.pct1 sorted.(n - 1))
    (Texttab.pct1 (sorted.(n - 1) -. sorted.(0)));
  let best_idx, best_v = Predict.Ordering.best_order avg in
  Format.fprintf ppf "best order: %s (%s%%)@." (order_string best_idx)
    (Texttab.pct1 best_v)

let quick_max_trials = 20_000

(* Keyed like the averages, plus [k] and the cap. *)
let subsets = Cache.Memo.create ~persist:true "subset"

let subset_result ?max_trials () =
  let rs = benchmarks () in
  let k = (List.length rs + 1) / 2 in
  Obs.span ~name:"stage.subset" (fun () ->
      Cache.Memo.find subsets (inputs rs, k, max_trials) (fun () ->
          Predict.Subset.run ~k ?max_trials (fst (miss_matrix_cached ()))))

let graph2_3_table4 ?max_trials ppf =
  let nb = List.length (benchmarks ()) in
  let k = (nb + 1) / 2 in
  let result = subset_result ?max_trials () in
  let overall = order_averages () in
  Format.fprintf ppf
    "Subset experiment: best order per %d-subset of %d benchmarks,@."
    k nb;
  Format.fprintf ppf
    "evaluated on all benchmarks (%d trials, %d distinct winning orders)@.@."
    result.trials result.distinct_orders;
  (* Graph 2: cumulative share of trials for most common orders *)
  Format.fprintf ppf "Graph 2: cumulative share of trials (top orders)@.";
  let cum = Predict.Subset.cumulative_share result in
  let picks = [ 0; 4; 9; 19; 39; 59; 79; 100 ] in
  Texttab.render ppf
    ~header:[ "top-N orders"; "cum % of trials" ]
    (List.filter_map
       (fun i ->
         if i < Array.length cum then
           Some
             [ string_of_int (i + 1); Texttab.pct1 cum.(i) ]
         else None)
       picks);
  (* Graph 3: overall average miss of the most common orders *)
  Format.fprintf ppf "@.Graph 3: overall avg miss of the most common orders@.";
  Texttab.render ppf
    ~header:[ "order rank"; "% trials won"; "overall avg miss %" ]
    (List.filter_map
       (fun i ->
         if i < Array.length result.wins then begin
           let o, c = result.wins.(i) in
           Some
             [
               string_of_int (i + 1);
               Texttab.pct1 (float_of_int c /. float_of_int result.trials);
               Texttab.pct1 overall.(o);
             ]
         end
         else None)
       [ 0; 1; 2; 3; 4; 9; 19; 39; 59; 79; 100 ]);
  (* Table 4: ten most common orders *)
  Format.fprintf ppf "@.Table 4: the 10 most common orders@.";
  let top10 =
    Array.to_list (Array.sub result.wins 0 (min 10 (Array.length result.wins)))
  in
  Texttab.render ppf
    ~header:[ "% of trials"; "overall miss %"; "order" ]
    (List.map
       (fun (o, c) ->
         [
           Texttab.pct1 (float_of_int c /. float_of_int result.trials);
           Texttab.pct1 overall.(o);
           order_string o;
         ])
       top10)
