(* Benchmark harness.

   With no arguments: regenerate every table and figure of the paper
   (the full experiment suite, including the complete 705,432-trial
   subset enumeration), then time each experiment driver with Bechamel
   (one Test.make per table/figure, running against warm caches).

   With arguments: run only the named experiments, e.g.
     dune exec bench/main.exe table2 graph4
   Special arguments: "all" (default), "quick" (cap the subset
   experiment), "timings" (parallel stage timings + the Bechamel
   section), "json" (emit the machine-readable BENCH_4.json perf
   trajectory: per-stage -j scaling, cold/warm disk-cache wall times,
   per-stage span-duration percentiles, cache/pool metrics, and
   robustness counters), "compare A.json B.json" (diff two bench JSON
   files of any schema version 1-4, exit nonzero on regression),
   "perf-smoke" (tiny workload sanity run, exit nonzero if the
   parallel path loses badly), "chaos-smoke [SEED]" (run the quick
   suite twice — clean, then under seeded fault injection — and fail
   unless the tables are byte-identical and every injected cache
   fault was recovered), "obs-smoke" (run the quick suite untraced
   and traced, require byte-identical tables, and validate the
   emitted Chrome trace JSON covers all four pipeline stages).

   "-j N" anywhere on the command line sets the domain count for the
   parallel sections (default: BALLARUS_JOBS or the machine's
   recommended domain count; "-j 1" is the sequential path).
   "--no-cache" disables the persistent result cache; "--trace FILE"
   records spans and writes a Chrome trace at exit. *)

let null_formatter =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* ---- parallel stage timings ----

   The four domain-parallel stages of the pipeline, each timed wall
   clock from cold in-memory caches, first at -j 1 and then at the
   requested width.  [prepare] empties every memo table and recomputes
   the stage's inputs, so each stage is measured in isolation against
   warm inputs.  The persistent store is bypassed while timing stages —
   otherwise the second run would measure a disk read. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let cold_except input () =
  Experiments.Bench_run.reset ();
  ignore (input ())

let stages : (string * (unit -> unit) * (unit -> unit)) list =
  [
    ( "load_all",
      Experiments.Bench_run.reset,
      fun () -> ignore (Experiments.Bench_run.load_all ()) );
    ( "miss_matrix",
      cold_except Experiments.Bench_run.load_all,
      fun () -> ignore (Experiments.Orderings.miss_matrix_cached ()) );
    ( "subset",
      cold_except Experiments.Orderings.miss_matrix_cached,
      fun () -> ignore (Experiments.Orderings.subset_result ()) );
    ( "traces",
      cold_except Experiments.Bench_run.load_all,
      Experiments.Traces.warm );
  ]

(* (name, seconds at -j 1, seconds at -j n) for every stage. *)
let measure_stages jn =
  let was = Cache.Store.enabled () in
  Cache.Store.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Cache.Store.set_enabled was)
    (fun () ->
      List.map
        (fun (name, prepare, run) ->
          Par.Pool.set_jobs 1;
          prepare ();
          let t1 = wall run in
          (* jn = 1 is the very same configuration as the j1 run;
             re-measuring it would only report timer noise *)
          let tn =
            if jn = 1 then t1
            else begin
              Par.Pool.set_jobs jn;
              prepare ();
              wall run
            end
          in
          (name, t1, tn))
        stages)

let print_stage_timings jn =
  Printf.printf "==== Parallel stage timings (wall clock, -j 1 vs -j %d) ====\n%!"
    jn;
  List.iter
    (fun (name, t1, tn) ->
      Printf.printf "%-14s j1 %8.3f s   j%d %8.3f s   speedup %5.2fx\n%!" name
        t1 jn tn
        (if tn > 0. then t1 /. tn else Float.nan))
    (measure_stages jn);
  print_newline ()

(* ---- cold/warm full-bench wall times ----

   One pass over all four stages with in-memory caches dropped first.
   "Cold" also clears the persistent store, so every simulation and
   the subset walk actually run (and their results get written);
   "warm" drops only the in-memory state, so the same pass is served
   from disk. *)

let full_bench () =
  Experiments.Bench_run.reset ();
  ignore (Experiments.Bench_run.load_all ());
  ignore (Experiments.Orderings.miss_matrix_cached ());
  ignore (Experiments.Orderings.subset_result ());
  Experiments.Traces.warm ()

let measure_cold_warm jn =
  Par.Pool.set_jobs jn;
  Cache.Store.set_enabled true;
  Cache.Store.clear ();
  let cold = wall full_bench in
  let warm = wall full_bench in
  (cold, warm)

(* ---- machine-readable perf trajectory ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The four stage spans whose duration percentiles go into the JSON. *)
let stage_span_names =
  [ "stage.load_all"; "stage.miss_matrix"; "stage.subset"; "stage.traces" ]

let metric name = Obs.Metrics.value (Obs.Metrics.counter name)

let emit_json jn =
  Obs.Metrics.reset ();
  (* record spans during the measured runs so the JSON can report
     per-stage duration percentiles; the events stay in memory unless
     --trace also armed an export file *)
  let was_recording = Obs.enabled () in
  Obs.enable ();
  let results = measure_stages jn in
  let cold, warm = measure_cold_warm jn in
  if not was_recording then Obs.disable ();
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"ballarus-bench/4\",\n";
  Buffer.add_string buf "  \"generated_by\": \"bench/main.exe json\",\n";
  Buffer.add_string buf
    (match Par.Pool.requested_jobs () with
    | Some n -> Printf.sprintf "  \"requested_jobs\": %d,\n" n
    | None -> "  \"requested_jobs\": null,\n");
  Buffer.add_string buf (Printf.sprintf "  \"effective_jobs\": %d,\n" jn);
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"experiments\": [\n";
  List.iteri
    (fun i (name, t1, tn) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"wall_s_j1\": %.6f, \"wall_s_jn\": %.6f, \
            \"speedup\": %.3f}%s\n"
           (json_escape name) t1 tn
           (if tn > 0. then t1 /. tn else Float.nan)
           (if i < List.length results - 1 then "," else "")))
    results;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf (Printf.sprintf "  \"cold_wall_s\": %.6f,\n" cold);
  Buffer.add_string buf (Printf.sprintf "  \"warm_wall_s\": %.6f,\n" warm);
  Buffer.add_string buf
    (Printf.sprintf "  \"warm_speedup\": %.3f,\n"
       (if warm > 0. then cold /. warm else Float.nan));
  (* schema 4: per-stage span-duration percentiles over every time the
     stage ran during the measured passes (j1, jn, cold, warm) *)
  let span_stats =
    List.filter_map
      (fun name ->
        match Obs.Metrics.find_histogram ("span." ^ name) with
        | Some s when s.Obs.Metrics.count > 0 -> Some (name, s)
        | _ -> None)
      stage_span_names
  in
  Buffer.add_string buf "  \"spans\": [\n";
  List.iteri
    (fun i (name, (s : Obs.Metrics.hstats)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"count\": %d, \"p50_s\": %.6f, \
            \"p95_s\": %.6f, \"max_s\": %.6f}%s\n"
           (json_escape name) s.count s.p50 s.p95 s.max
           (if i < List.length span_stats - 1 then "," else "")))
    span_stats;
  Buffer.add_string buf "  ],\n";
  (* schema 4: cache traffic and pool job/task counts over the same
     measured passes *)
  Buffer.add_string buf "  \"metrics\": {\n";
  let metric_names =
    [ "cache.hit"; "cache.miss"; "cache.corrupt"; "cache.write";
      "pool.jobs"; "pool.tasks" ]
  in
  List.iteri
    (fun i name ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %d%s\n" name (metric name)
           (if i < List.length metric_names - 1 then "," else "")))
    metric_names;
  Buffer.add_string buf "  },\n";
  (* schema 3: how much fault recovery the measured run needed — on a
     healthy host every count is 0 *)
  Buffer.add_string buf "  \"robustness\": {\n";
  let robustness =
    [ ("retries", "robust.retries"); ("timeouts", "robust.timeouts");
      ("fuel_exhausted", "robust.fuel_exhausted");
      ("task_failures", "robust.task_failures");
      ("cache_corrupt_quarantined", "cache.corrupt_quarantined");
      ("cache_write_retries", "cache.write_retries");
      ("cache_write_failures", "cache.write_failures");
      ("cache_tmp_cleaned", "cache.tmp_cleaned") ]
  in
  List.iteri
    (fun i (key, name) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %d%s\n" key (metric name)
           (if i < List.length robustness - 1 then "," else "")))
    robustness;
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  let out = Buffer.contents buf in
  let oc = open_out "BENCH_4.json" in
  output_string oc out;
  close_out oc;
  print_string out;
  Printf.printf "wrote BENCH_4.json\n%!"

(* ---- minimal JSON reader for "compare" ----

   Just enough for the flat BENCH_*.json files this harness writes:
   objects, arrays, strings, numbers, null.  No external dependency. *)

module Json = struct
  type t =
    | Null
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected %c" c)
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c -> Buffer.add_char buf c);
          advance ();
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((k, v) :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
        end
      | Some '"' -> Str (string_lit ())
      | Some 'n' -> literal "null" Null
      | Some ('t' | 'f') ->
        (* booleans never appear in our files; accept them anyway *)
        if peek () = Some 't' then literal "true" (Num 1.)
        else literal "false" (Num 0.)
      | Some _ -> number ()
      | None -> fail "unexpected end of input"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_num = function Some (Num f) -> Some f | _ -> None
  let num_field k o = to_num (member k o)
end

(* ---- compare: diff two BENCH_*.json files ---- *)

type bench_file = {
  path : string;
  schema : string;
  experiments : (string * float * float) list; (* name, j1, jn *)
  cold : float option;
  warm : float option;
  robustness : (string * float) list;
      (* schema 3 counters; empty for older files *)
  metrics : (string * float) list;
      (* schema 4 cache/pool counters; empty for older files *)
  spans : (string * float * float) list;
      (* schema 4 per-stage (name, p50_s, p95_s); empty for older files *)
}

let read_bench_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = Json.parse s in
  let schema =
    match Json.member "schema" j with Some (Json.Str s) -> s | _ -> "?"
  in
  let experiments =
    match Json.member "experiments" j with
    | Some (Json.Arr items) ->
      List.filter_map
        (fun e ->
          match
            ( Json.member "name" e,
              Json.num_field "wall_s_j1" e,
              Json.num_field "wall_s_jn" e )
          with
          | Some (Json.Str name), Some t1, Some tn -> Some (name, t1, tn)
          | _ -> None)
        items
    | _ -> []
  in
  let numeric_object field =
    match Json.member field j with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match v with Json.Num f -> Some (k, f) | _ -> None)
        kvs
    | _ -> []
  in
  let spans =
    match Json.member "spans" j with
    | Some (Json.Arr items) ->
      List.filter_map
        (fun e ->
          match
            ( Json.member "name" e,
              Json.num_field "p50_s" e,
              Json.num_field "p95_s" e )
          with
          | Some (Json.Str name), Some p50, Some p95 -> Some (name, p50, p95)
          | _ -> None)
        items
    | _ -> []
  in
  {
    path;
    schema;
    experiments;
    cold = Json.num_field "cold_wall_s" j;
    warm = Json.num_field "warm_wall_s" j;
    robustness = numeric_object "robustness";
    metrics = numeric_object "metrics";
    spans;
  }

(* A stage regresses when it gets >10% slower AND loses more than 50ms
   of wall clock — the absolute floor keeps timer noise on
   sub-100ms stages from failing CI. *)
let regressed ~old_s ~new_s = new_s > old_s *. 1.10 && new_s -. old_s > 0.05

let compare_benches old_path new_path =
  let a = read_bench_file old_path and b = read_bench_file new_path in
  Printf.printf "comparing %s (%s) -> %s (%s)\n\n" a.path a.schema b.path
    b.schema;
  let regressions = ref [] in
  Printf.printf "%-14s %12s %12s %8s\n" "stage" "old j1 (s)" "new j1 (s)"
    "ratio";
  List.iter
    (fun (name, t1_new, tn_new) ->
      match List.find_opt (fun (n, _, _) -> n = name) a.experiments with
      | None -> Printf.printf "%-14s %12s %12.3f %8s\n" name "-" t1_new "new"
      | Some (_, t1_old, tn_old) ->
        let ratio = if t1_old > 0. then t1_new /. t1_old else Float.nan in
        Printf.printf "%-14s %12.3f %12.3f %7.2fx\n" name t1_old t1_new ratio;
        if regressed ~old_s:t1_old ~new_s:t1_new then
          regressions := Printf.sprintf "%s (j1)" name :: !regressions;
        if regressed ~old_s:tn_old ~new_s:tn_new then
          regressions := Printf.sprintf "%s (jn)" name :: !regressions)
    b.experiments;
  let total l = List.fold_left (fun acc (_, t1, _) -> acc +. t1) 0. l in
  let told = total a.experiments and tnew = total b.experiments in
  Printf.printf "%-14s %12.3f %12.3f %7.2fx\n" "TOTAL(j1)" told tnew
    (if told > 0. then tnew /. told else Float.nan);
  (match (a.cold, b.cold) with
  | Some co, Some cn ->
    Printf.printf "%-14s %12.3f %12.3f %7.2fx\n" "cold" co cn (cn /. co);
    if regressed ~old_s:co ~new_s:cn then regressions := "cold" :: !regressions
  | _ -> ());
  (match (a.warm, b.warm) with
  | Some wo, Some wn ->
    Printf.printf "%-14s %12.3f %12.3f %7.2fx\n" "warm" wo wn (wn /. wo)
  | _ -> ());
  if regressed ~old_s:told ~new_s:tnew then
    regressions := "TOTAL(j1)" :: !regressions;
  (* Robustness counters (schema 3) and cache/pool metrics (schema 4)
     are informational: what happened during the measured run, not a
     perf signal — so they are printed, never gated on. *)
  let print_counters title av bv =
    if av <> [] || bv <> [] then begin
      Printf.printf "\n%s:\n" title;
      let keys =
        List.sort_uniq String.compare (List.map fst av @ List.map fst bv)
      in
      List.iter
        (fun k ->
          let show = function
            | Some f -> Printf.sprintf "%.0f" f
            | None -> "-"
          in
          Printf.printf "%-28s %6s -> %6s\n" k
            (show (List.assoc_opt k av))
            (show (List.assoc_opt k bv)))
        keys
    end
  in
  print_counters "robustness counters" a.robustness b.robustness;
  print_counters "cache/pool metrics" a.metrics b.metrics;
  (* Per-stage span percentiles (schema 4): informational trend line. *)
  if a.spans <> [] || b.spans <> [] then begin
    Printf.printf "\nstage span percentiles (p50/p95 s):\n";
    let keys =
      List.sort_uniq String.compare
        (List.map (fun (n, _, _) -> n) a.spans
        @ List.map (fun (n, _, _) -> n) b.spans)
    in
    List.iter
      (fun k ->
        let get l = List.find_opt (fun (n, _, _) -> n = k) l in
        let show = function
          | Some (_, p50, p95) -> Printf.sprintf "%.3f/%.3f" p50 p95
          | None -> "-"
        in
        Printf.printf "%-28s %15s -> %15s\n" k (show (get a.spans))
          (show (get b.spans)))
      keys
  end;
  match !regressions with
  | [] ->
    Printf.printf "\nno regressions\n";
    0
  | rs ->
    Printf.printf "\nREGRESSIONS: %s\n" (String.concat ", " (List.rev rs));
    1

(* ---- perf-smoke: a seconds-scale sanity gate for CI ----

   Profiles one small workload at -j 1 and at the effective width, and
   runs a capped subset enumeration the same way.  Fails when the
   parallel path is meaningfully slower than sequential — a speedup
   below 0.9x that also loses more than 50ms (so single-digit-ms
   timer noise on a 1-core host cannot flap the gate). *)

let perf_smoke jn =
  Cache.Store.set_enabled false;
  (* the miss matrix feeding the subset stage is built once, outside
     the timed region; the stage times the walk itself, which a memo
     table would otherwise serve from memory the second time *)
  Par.Pool.set_jobs jn;
  let m, _ = Experiments.Orderings.miss_matrix_cached () in
  let k = (Array.length m + 1) / 2 in
  let smoke_wl = "matrix300" in
  let stages =
    [
      ( "profile:" ^ smoke_wl,
        (fun () -> Experiments.Bench_run.reset ()),
        fun () -> ignore (Experiments.Bench_run.load_named [ smoke_wl ]) );
      ( "subset:20k",
        ignore,
        fun () -> ignore (Predict.Subset.run ~k ~max_trials:20_000 m) );
    ]
  in
  let failures = ref [] in
  List.iter
    (fun (name, prepare, run) ->
      Par.Pool.set_jobs 1;
      prepare ();
      let t1 = wall run in
      Par.Pool.set_jobs jn;
      prepare ();
      let tn = wall run in
      let speedup = if tn > 0. then t1 /. tn else Float.nan in
      Printf.printf "%-18s j1 %7.3f s   j%d %7.3f s   speedup %5.2fx\n%!" name
        t1 jn tn speedup;
      if speedup < 0.9 && tn -. t1 > 0.05 then failures := name :: !failures)
    stages;
  match !failures with
  | [] ->
    Printf.printf "perf-smoke OK (effective jobs %d)\n" jn;
    0
  | fs ->
    Printf.printf "perf-smoke FAILED: parallel slower than sequential on %s\n"
      (String.concat ", " (List.rev fs));
    1

(* ---- chaos-smoke: the robustness gate ----

   Runs the quick experiment suite twice against an isolated on-disk
   store: once clean (filling the store), once with seeded fault
   injection armed — cache-entry corruption, a task exception inside
   the parallel prewarm, scheduling delays.  One cache corruption and
   one task raise are force-armed so the gate exercises both recovery
   paths on every seed.  Passes only if the chaos run's tables are
   byte-identical to the clean run's, no experiment failed
   permanently, and every injected cache corruption was quarantined
   exactly once. *)

let chaos_smoke seed =
  Printf.printf "==== chaos-smoke (seed %d) ====\n%!" seed;
  let cache_dir = Printf.sprintf "_chaos_cache_%d" (Unix.getpid ()) in
  Cache.Store.set_dir cache_dir;
  Cache.Store.set_enabled true;
  Cache.Store.clear ();
  let render () =
    let buf = Buffer.create (1 lsl 16) in
    let bppf = Format.formatter_of_buffer buf in
    let s = Experiments.Driver.run_all ~quick:true bppf in
    Format.pp_print_flush bppf ();
    (Buffer.contents buf, s)
  in
  Experiments.Bench_run.reset ();
  let clean_out, clean_sum = render () in
  Experiments.Bench_run.reset ();
  Obs.Metrics.reset ();
  Robust.Inject.reset ();
  Robust.Inject.set_seed (Some seed);
  Robust.Inject.force Robust.Inject.Cache_read 1;
  Robust.Inject.force Robust.Inject.Task 1;
  let chaos_out, chaos_sum = render () in
  Robust.Inject.set_seed None;
  let injected = Robust.Inject.summary () in
  let total_injected = List.fold_left (fun a (_, n) -> a + n) 0 injected in
  let quarantined = metric "cache.corrupt_quarantined" in
  Printf.printf "injected faults:%s\n"
    (String.concat ""
       (List.map (fun (s, n) -> Printf.sprintf " %s=%d" s n) injected));
  Printf.printf "cache recovery: %d quarantined, %d write retries, %d write \
                 failures, %d tmp cleaned\n"
    quarantined (metric "cache.write_retries") (metric "cache.write_failures")
    (metric "cache.tmp_cleaned");
  Printf.printf
    "supervisor: retries %d, timeouts %d, fuel exhausted %d, task failures %d\n"
    (metric "robust.retries") (metric "robust.timeouts")
    (metric "robust.fuel_exhausted") (metric "robust.task_failures");
  Format.printf "clean run:  %a" Experiments.Driver.pp_summary clean_sum;
  Format.printf "chaos run:  %a" Experiments.Driver.pp_summary chaos_sum;
  (* tear down the isolated store *)
  Cache.Store.clear ();
  (try Sys.rmdir cache_dir with Sys_error _ -> ());
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  check (total_injected > 0) "no faults were injected";
  check
    (String.equal chaos_out clean_out)
    "chaos run tables differ from clean run";
  check (clean_sum.failed = 0) "clean run had permanent failures";
  check (chaos_sum.failed = 0) "chaos run had permanent failures";
  check
    (quarantined = Robust.Inject.fired Robust.Inject.Cache_read)
    "not every injected cache corruption was quarantined";
  match List.rev !failures with
  | [] ->
    Printf.printf "chaos-smoke OK: byte-identical tables under %d injected \
                   faults\n"
      total_injected;
    0
  | fs ->
    Printf.printf "chaos-smoke FAILED: %s\n" (String.concat "; " fs);
    1

(* ---- obs-smoke: the observability gate ----

   Runs the quick experiment suite twice against an isolated on-disk
   store: once with tracing off, once with span recording on and the
   trace exported to a file.  Passes only if (1) the traced run's
   tables are byte-identical to the untraced run's — instrumentation
   must never leak into results; (2) the emitted file parses as JSON
   and its traceEvents cover all four pipeline stages; and (3) a
   disabled Obs.span really is a no-op branch (a generous absolute
   bound on a tight loop of disabled spans, so a pessimised fast path
   fails loudly without making the gate timing-flaky). *)

let obs_smoke () =
  Printf.printf "==== obs-smoke ====\n%!";
  let cache_dir = Printf.sprintf "_obs_cache_%d" (Unix.getpid ()) in
  let trace_path = Printf.sprintf "_obs_trace_%d.json" (Unix.getpid ()) in
  Cache.Store.set_dir cache_dir;
  Cache.Store.set_enabled true;
  Cache.Store.clear ();
  let render () =
    let buf = Buffer.create (1 lsl 16) in
    let bppf = Format.formatter_of_buffer buf in
    let s = Experiments.Driver.run_all ~quick:true bppf in
    Format.pp_print_flush bppf ();
    (Buffer.contents buf, s)
  in
  Experiments.Bench_run.reset ();
  Obs.disable ();
  let plain_out, plain_sum = render () in
  Experiments.Bench_run.reset ();
  Obs.reset_events ();
  Obs.enable ();
  let traced_out, traced_sum = render () in
  Obs.disable ();
  Obs.write_trace trace_path;
  let nevents = List.length (Obs.events ()) in
  (* the emitted file must parse, and its events must cover the four
     pipeline stages *)
  let trace_names =
    let ic = open_in_bin trace_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.member "traceEvents" (Json.parse s) with
    | Some (Json.Arr evs) ->
      List.filter_map
        (fun e ->
          match Json.member "name" e with
          | Some (Json.Str n) -> Some n
          | _ -> None)
        evs
    | _ -> []
  in
  (* disabled-span overhead: 10M no-op spans must be branch-cheap *)
  let niter = 10_000_000 in
  let acc = ref 0 in
  let t_disabled =
    wall (fun () ->
        for i = 1 to niter do
          acc := Obs.span ~name:"noop" (fun () -> !acc + i)
        done)
  in
  Printf.printf "trace: %d events, %d distinct names -> %s\n" nevents
    (List.length (List.sort_uniq String.compare trace_names))
    trace_path;
  Printf.printf "disabled span overhead: %.1f ns/span\n"
    (t_disabled /. float_of_int niter *. 1e9);
  Format.printf "untraced run: %a" Experiments.Driver.pp_summary plain_sum;
  Format.printf "traced run:   %a" Experiments.Driver.pp_summary traced_sum;
  (* tear down the isolated store and the trace file *)
  Cache.Store.clear ();
  (try Sys.rmdir cache_dir with Sys_error _ -> ());
  (try Sys.remove trace_path with Sys_error _ -> ());
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  check
    (String.equal traced_out plain_out)
    "traced run tables differ from untraced run";
  check (plain_sum.failed = 0) "untraced run had permanent failures";
  check (traced_sum.failed = 0) "traced run had permanent failures";
  check (nevents > 0) "no spans were recorded";
  List.iter
    (fun stage ->
      check
        (List.mem stage trace_names)
        (Printf.sprintf "trace JSON has no span for %s" stage))
    stage_span_names;
  check
    (List.mem "experiment" trace_names)
    "trace JSON has no experiment spans";
  check (t_disabled < 2.0) "disabled spans cost far more than a branch";
  match List.rev !failures with
  | [] ->
    Printf.printf
      "obs-smoke OK: byte-identical tables, %d spans exported\n" nevents;
    0
  | fs ->
    Printf.printf "obs-smoke FAILED: %s\n" (String.concat "; " fs);
    1

(* One Bechamel test per experiment driver.  The first full run above
   warms every cache (compiled programs, profiles, miss matrices,
   trace histograms), so these measure the analysis itself rather than
   simulation. *)
let bechamel_tests () =
  let open Bechamel in
  let drv id =
    match Experiments.Driver.find id with
    | Some e -> e.run
    | None -> assert false
  in
  let t name fn = Test.make ~name (Staged.stage fn) in
  [
    t "table1" (fun () -> drv "table1" null_formatter);
    t "table2" (fun () -> drv "table2" null_formatter);
    t "table3" (fun () -> drv "table3" null_formatter);
    t "graph1" (fun () -> Experiments.Orderings.graph1 null_formatter);
    t "graph2+3/table4(2k trials)" (fun () ->
        Experiments.Orderings.graph2_3_table4 ~max_trials:2_000 null_formatter);
    t "table5" (fun () -> drv "table5" null_formatter);
    t "table6" (fun () -> drv "table6" null_formatter);
    t "table7" (fun () -> drv "table7" null_formatter);
    t "graph4(spice2g6)" (fun () ->
        Experiments.Traces.graph_for null_formatter "spice2g6");
    t "graph6(gcc)" (fun () -> Experiments.Traces.graph_for null_formatter "gcc");
    t "graph7(lcc)" (fun () -> Experiments.Traces.graph_for null_formatter "lcc");
    t "graph8(qpt)" (fun () -> Experiments.Traces.graph_for null_formatter "qpt");
    t "graph9(xlisp)" (fun () ->
        Experiments.Traces.graph_for null_formatter "xlisp");
    t "graph10(doduc)" (fun () ->
        Experiments.Traces.graph_for null_formatter "doduc");
    t "graph11(fpppp)" (fun () ->
        Experiments.Traces.graph_for null_formatter "fpppp");
    t "graph12" (fun () -> drv "graph12" null_formatter);
    t "graph13" (fun () -> drv "graph13" null_formatter);
    (* component micro-benchmarks *)
    t "compile(gcc workload)" (fun () ->
        ignore
          (Minic.Frontend.compile (Workloads.Registry.find "gcc").source));
    t "cfg-analysis(gcc)" (fun () ->
        let r = Experiments.Bench_run.load (Workloads.Registry.find "gcc") in
        ignore (Cfg.Analysis.of_program r.prog));
    t "heuristics(gcc)" (fun () ->
        let r = Experiments.Bench_run.load (Workloads.Registry.find "gcc") in
        ignore
          (Predict.Database.make r.prog r.analyses ~taken:r.profile.taken
             ~fall:r.profile.fall));
    (let wl = Workloads.Registry.find "xlisp" in
     let prog = Workloads.Workload.compile wl in
     let ds = Workloads.Workload.primary_dataset wl in
     t "simulate(xlisp ref)" (fun () -> ignore (Sim.Machine.run prog ds)));
  ]

let run_timings () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  Printf.printf "==== Bechamel timings (per run, monotonic clock) ====\n%!";
  let estimates =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let ols =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false
               ~predictors:[| Measure.run |])
            instance results
        in
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) ols [])
      (bechamel_tests ())
  in
  (* Hashtbl.fold surfaces results in hash order; sort by test name so
     the report is stable run to run. *)
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
        if est > 1e9 then Printf.printf "%-28s %8.2f s\n%!" name (est /. 1e9)
        else if est > 1e6 then
          Printf.printf "%-28s %8.2f ms\n%!" name (est /. 1e6)
        else Printf.printf "%-28s %8.2f us\n%!" name (est /. 1e3)
      | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) estimates)

(* Strip "-j N" and "--no-cache" out of the argument list, configuring
   the pool and the persistent store. *)
let rec parse_flags acc = function
  | [] -> List.rev acc
  | "-j" :: n :: rest | "--jobs" :: n :: rest -> (
    match int_of_string_opt n with
    | Some jobs when jobs >= 1 ->
      Par.Pool.set_jobs jobs;
      parse_flags acc rest
    | _ ->
      Printf.eprintf "bad -j argument %S\n" n;
      exit 1)
  | [ "-j" ] | [ "--jobs" ] ->
    Printf.eprintf "-j needs an argument\n";
    exit 1
  | "--no-cache" :: rest ->
    Cache.Store.set_enabled false;
    parse_flags acc rest
  | "--trace" :: file :: rest ->
    Obs.set_trace_file (Some file);
    parse_flags acc rest
  | [ "--trace" ] ->
    Printf.eprintf "--trace needs a file argument\n";
    exit 1
  | x :: rest -> parse_flags (x :: acc) rest

let () =
  let args = parse_flags [] (List.tl (Array.to_list Sys.argv)) in
  let ppf = Format.std_formatter in
  let run_suite ?quick () =
    let s = Experiments.Driver.run_all ?quick ppf in
    Experiments.Driver.pp_summary Format.err_formatter s;
    if Experiments.Driver.exit_code s <> 0 then
      exit (Experiments.Driver.exit_code s)
  in
  match args with
  | [] | [ "all" ] ->
    run_suite ();
    run_timings ()
  | [ "quick" ] ->
    run_suite ~quick:true ();
    run_timings ()
  | [ "timings" ] ->
    print_stage_timings (Par.Pool.effective_jobs ());
    (* warm the remaining caches for the Bechamel section *)
    ignore (Experiments.Driver.run_all ~quick:true null_formatter);
    run_timings ()
  | [ "json" ] -> emit_json (Par.Pool.effective_jobs ())
  | [ "compare"; old_path; new_path ] ->
    exit (compare_benches old_path new_path)
  | [ "perf-smoke" ] -> exit (perf_smoke (Par.Pool.effective_jobs ()))
  | [ "obs-smoke" ] -> exit (obs_smoke ())
  | [ "chaos-smoke" ] -> exit (chaos_smoke 1933)
  | [ "chaos-smoke"; seed ] -> (
    match int_of_string_opt seed with
    | Some seed -> exit (chaos_smoke seed)
    | None ->
      Printf.eprintf "bad chaos-smoke seed %S\n" seed;
      exit 1)
  | ids ->
    List.iter
      (fun id ->
        match Experiments.Driver.find id with
        | Some e ->
          Format.fprintf ppf "==== %s ====@.@." e.title;
          e.run ppf;
          Format.fprintf ppf "@."
        | None ->
          Printf.eprintf "unknown experiment %s\n" id;
          exit 1)
      ids
