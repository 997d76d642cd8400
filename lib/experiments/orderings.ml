let matrices = Cache.Memo.create "orderings.miss_matrix"

let miss_matrix_cached () =
  Cache.Memo.find matrices () (fun () ->
      Obs.span ~name:"stage.miss_matrix" (fun () ->
          let rs =
            Par.Pool.parallel_map_list (Par.Pool.get ()) Bench_run.load
              (Workloads.Registry.without [ "matrix300" ])
          in
          let dbs =
            Array.of_list (List.map (fun (r : Bench_run.t) -> r.db) rs)
          in
          (Predict.Ordering.miss_matrix dbs, rs)))

let order_string idx =
  String.concat " "
    (List.map Predict.Heuristic.name (Predict.Ordering.order_of_index idx))

let graph1 ppf =
  Format.fprintf ppf
    "Graph 1: average non-loop miss rate for all 5040 orderings@.";
  Format.fprintf ppf "(matrix300 excluded; sorted by miss rate)@.@.";
  let m, _ = miss_matrix_cached () in
  let sorted = Predict.Ordering.sorted_average m in
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
  let best_idx, best_v = Predict.Ordering.best_order m in
  Format.fprintf ppf "best order: %s (%s%%)@." (order_string best_idx)
    (Texttab.pct1 best_v)

let quick_max_trials = 20_000

(* Under one build fingerprint the matrix is a pure function of each
   benchmark's program and primary dataset, so the walk is keyed by
   those 22 pairs, [k] and the cap, never by the matrix's own bytes. *)
let subsets = Cache.Memo.create ~persist:true "subset"

let subset_result ?max_trials () =
  let m, rs = miss_matrix_cached () in
  let k = (List.length rs + 1) / 2 in
  let inputs =
    List.map
      (fun (r : Bench_run.t) ->
        (r.digest, Workloads.Workload.primary_dataset r.wl))
      rs
  in
  Obs.span ~name:"stage.subset" (fun () ->
      Cache.Memo.find subsets (inputs, k, max_trials) (fun () ->
          Predict.Subset.run ~k ?max_trials m))

let graph2_3_table4 ?max_trials ppf =
  let _, rs = miss_matrix_cached () in
  let nb = List.length rs in
  let k = (nb + 1) / 2 in
  let result = subset_result ?max_trials () in
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
               Texttab.pct1 result.overall.(o);
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
           Texttab.pct1 result.overall.(o);
           order_string o;
         ])
       top10)
