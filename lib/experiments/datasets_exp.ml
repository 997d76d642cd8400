module D = Predict.Database
module M = Predict.Metrics

let pairs () =
  List.concat_map
    (fun (wl : Workloads.Workload.t) ->
      List.map (fun ds -> (wl, ds)) wl.datasets)
    Workloads.Registry.all

let warm () =
  Obs.span ~name:"stage.datasets" (fun () ->
      ignore
        (Par.Pool.parallel_map_list
           (fun (wl, ds) -> Bench_run.db_for (Bench_run.load wl) ds)
           (pairs ())))

let graph13 ppf =
  Format.fprintf ppf
    "Graph 13: miss rates (all branches) across datasets@.";
  Format.fprintf ppf
    "(the heuristic predictor is dataset independent: same static@.";
  Format.fprintf ppf
    " predictions everywhere; the perfect predictor is per-dataset)@.@.";
  let order = Predict.Combined.paper_order in
  let rows =
    List.map
      (fun ((wl : Workloads.Workload.t), (ds : Sim.Dataset.t)) ->
        let db = Bench_run.db_for (Bench_run.load wl) ds in
        let t =
          M.tally
            (fun b -> Some (Predict.Combined.predict order b))
            (Array.to_list db.branches)
        in
        [ wl.name; ds.name; Texttab.pct (M.miss t); Texttab.pct (M.perfect t) ])
      (pairs ())
  in
  Texttab.render ppf
    ~header:[ "Program"; "dataset"; "Heuristic miss%"; "Perfect miss%" ]
    rows
