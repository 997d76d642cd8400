let predictors_for (r : Bench_run.t) = Bench_run.predictors r.db

let trace_results name =
  Bench_run.traces_for (Bench_run.load (Workloads.Registry.find name))

(* [Bench_run.load] fills the trace entries, so after the loads this
   stage only reads. *)
let warm () =
  Obs.span ~name:"stage.traces" (fun () ->
      ignore
        (Par.Pool.parallel_map_list
           (fun (wl : Workloads.Workload.t) -> trace_results wl.name)
           (Workloads.Registry.traced ())))

let lengths = [ 10; 20; 50; 100; 200; 500; 1000; 2000; 5000; 10000 ]

let graph_for ppf name =
  let dists = List.map Tracing.Ipbc.of_result (trace_results name) in
  Format.fprintf ppf
    "Graph (%s): cumulative %% of executed instructions in sequences@." name;
  Format.fprintf ppf "shorter than the given length, per predictor@.@.";
  Texttab.render ppf
    ~header:[ "predictor"; "miss%"; "ipbc"; "div.len" ]
    (List.map
       (fun (d : Tracing.Ipbc.distribution) ->
         [
           d.label;
           Texttab.pct d.miss_rate;
           Printf.sprintf "%.0f" d.ipbc;
           string_of_int (Tracing.Ipbc.dividing_length d);
         ])
       dists);
  Format.fprintf ppf "@.";
  Texttab.render ppf
    ~header:
      ("len <"
      :: List.map (fun (d : Tracing.Ipbc.distribution) -> d.label) dists)
    (List.map
       (fun len ->
         string_of_int len
         :: List.map
              (fun d ->
                Texttab.pct (Tracing.Ipbc.fraction_below d len))
              dists)
       lengths);
  if String.equal name "spice2g6" then begin
    Format.fprintf ppf
      "@.Graph 5 (%s): cumulative %% of BREAKS in sequences shorter@." name;
    Format.fprintf ppf "than the given length (the skew behind the IPBC bias)@.@.";
    Texttab.render ppf
      ~header:
        ("len <"
        :: List.map (fun (d : Tracing.Ipbc.distribution) -> d.label) dists)
      (List.map
         (fun len ->
           string_of_int len
           :: List.map
                (fun d -> Texttab.pct (Tracing.Ipbc.breaks_below d len))
                dists)
         lengths)
  end

let graph12 ppf =
  Format.fprintf ppf
    "Graph 12: model y = 1 - (1-m)^s (unit blocks, independent branches)@.@.";
  let misses = List.init 12 (fun i -> 0.025 *. float_of_int (i + 1)) in
  let seqlens = [ 1; 2; 5; 10; 20; 50; 100; 200 ] in
  Texttab.render ppf
    ~header:
      ("m \\ s" :: List.map string_of_int seqlens)
    (List.map
       (fun m ->
         Texttab.pct1 m
         :: List.map
              (fun s -> Texttab.pct (Tracing.Ipbc.model ~miss_rate:m s))
              seqlens)
       misses);
  Format.fprintf ppf
    "@.The payoff in sequence length comes from pushing m below ~15%%.@."
