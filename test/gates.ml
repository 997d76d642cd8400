(* The tier-2 gates that exercise the experiment pipeline as a whole,
   run by the test runner next to the suites ([main.exe GATE]) and by
   the aliases of the same names in test/dune:

     perf-smoke          parallel path no slower than sequential
     fault-smoke         quick suite byte-identical over a damaged and
                         over an unwritable store
     obs-smoke           quick suite byte-identical when traced
     contract-smoke      bpredict experiment all, run as a user runs
                         it, prints the goldens at any -j, cold and warm,
                         full and --quick over each other's store

   The pool width is the machine's recommended domain count.  Each
   gate prints its findings and returns 0 on
   success, 1 on failure.  Paper tables come from
   [bpredict experiment]; timing the suite is [suitebench/run.py]'s
   job. *)

open Check

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* The quick suite from empty memo tables, rendered to a string. *)
let render_quick () =
  Experiments.Bench_run.reset ();
  let buf = Buffer.create (1 lsl 16) in
  let ppf = Format.formatter_of_buffer buf in
  let s = Experiments.Driver.run_list ~quick:true Experiments.Driver.all ppf in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, s)

(* Print the outcome of a gate's checks; its exit code. *)
let report gate ok_msg failures =
  match List.rev failures with
  | [] ->
    Printf.printf "%s OK: %s\n" gate ok_msg;
    0
  | fs ->
    Printf.printf "%s FAILED: %s\n" gate (String.concat "; " fs);
    1

(* ---- perf-smoke: a seconds-scale sanity gate for CI ----

   Profiles four small workloads at -j 1 and at the effective width
   (four, so the pool has tasks to spread), and runs a capped subset
   enumeration the same way.  Each stage runs twice per width and the
   second run is timed: the first after [with_jobs] pays each new
   worker domain's start-up.  Fails when the parallel path is
   meaningfully slower than sequential — a speedup below 0.9x that
   also loses more than 50ms (so single-digit-ms timer noise on a
   1-core host cannot flap the gate). *)

let perf_smoke () =
  let jn = Par.Pool.default_jobs () in
  Cache.Store.set_enabled false;
  (* the miss matrix feeding the subset stage is built once, outside
     the timed region; the stage times the walk itself, which a memo
     table would otherwise serve from memory the second time *)
  let m, _ = Experiments.Orderings.miss_matrix_cached () in
  let k = (Array.length m + 1) / 2 in
  let smoke_wls = [ "xlisp"; "gcc"; "rn"; "compress" ] in
  let stages =
    [
      ( "profile:" ^ String.concat "+" smoke_wls,
        (fun () -> Experiments.Bench_run.reset ()),
        fun () ->
          ignore
            (Par.Pool.parallel_map_list
               (fun n ->
                 Experiments.Bench_run.load (Workloads.Registry.find n))
               smoke_wls) );
      ( "subset:20k",
        ignore,
        fun () -> ignore (Predict.Subset.run ~k ~max_trials:20_000 m) );
    ]
  in
  let failures = ref [] in
  List.iter
    (fun (name, prepare, run) ->
      let timed jobs =
        Par.Pool.with_jobs jobs @@ fun () ->
        prepare ();
        run ();
        prepare ();
        wall run
      in
      let t1 = timed 1 in
      let tn = timed jn in
      let speedup = if tn > 0. then t1 /. tn else Float.nan in
      Printf.printf "%-30s j1 %7.3f s   j%d %7.3f s   speedup %5.2fx\n%!" name
        t1 jn tn speedup;
      if speedup < 0.9 && tn -. t1 > 0.05 then
        failures :=
          Printf.sprintf "parallel slower than sequential on %s" name
          :: !failures)
    stages;
  report "perf-smoke" (Printf.sprintf "effective jobs %d" jn) !failures

(* ---- fault-smoke: the robustness gate ----

   Runs the quick experiment suite three times against an isolated
   on-disk store.  Run 1 fills the store.  Then every entry on disk is
   damaged, round-robin: truncated, one payload byte flipped, or
   overwritten with the next entry's original bytes — a well-formed
   entry under the wrong name, whose payload may be another table's
   type.  Run 2 must quarantine every damaged entry, serve none of them
   and still print run 1's tables.  Run 3 points the store at a
   regular file, so no entry can be read or written; it must print the
   same tables with every write skipped.  No run may fail an
   experiment. *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Damage entry [i] of [entries] (paths, with their original bytes in
   [bytes]): truncate it, flip one payload byte, or give it the next
   entry's bytes, by [i mod 3]. *)
let damage entries bytes i =
  let b = bytes.(i) in
  match i mod 3 with
  | 0 -> write_file entries.(i) (String.sub b 0 (String.length b / 2))
  | 1 ->
    (* the payload follows the two header lines *)
    let header = String.index_from b (String.index b '\n' + 1) '\n' + 1 in
    let at = header + ((String.length b - header) / 2) in
    let flipped = Bytes.of_string b in
    Bytes.set flipped at (Char.chr (Char.code b.[at] lxor 0xff));
    write_file entries.(i) (Bytes.to_string flipped)
  | _ -> write_file entries.(i) bytes.((i + 1) mod Array.length entries)

let fault_smoke () =
  Printf.printf "==== fault-smoke ====\n%!";
  with_isolated_store "fault" @@ fun dir ->
  let clean_out, clean_sum = render_quick () in
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
    |> Array.of_list
  in
  let bytes = Array.map read_file entries in
  Array.iteri (fun i _ -> damage entries bytes i) entries;
  let damaged = Array.length entries in
  Printf.printf "damaged %d entries: %d truncated, %d flipped, %d misnamed\n"
    damaged ((damaged + 2) / 3) ((damaged + 1) / 3) (damaged / 3);
  Obs.Metrics.reset ();
  let damaged_out, damaged_sum = render_quick () in
  let hits = metric "cache.hit" in
  let quarantined = metric "cache.corrupt_quarantined" in
  Printf.printf "damaged store: %d hits, %d quarantined\n" hits quarantined;
  (* an unwritable store: its path is a regular file *)
  let blocked = Filename.concat dir "blocked" in
  write_file blocked "";
  Cache.Store.set_dir blocked;
  Obs.Metrics.reset ();
  let blocked_out, blocked_sum =
    Fun.protect ~finally:(fun () -> Cache.Store.set_dir dir) render_quick
  in
  let writes = metric "cache.write" in
  let write_failures = metric "cache.write_failures" in
  Printf.printf "unwritable store: %d writes, %d write failures\n" writes
    write_failures;
  Format.printf "clean run:      %a" Experiments.Driver.pp_summary clean_sum;
  Format.printf "damaged store:  %a" Experiments.Driver.pp_summary damaged_sum;
  Format.printf "unwritable:     %a" Experiments.Driver.pp_summary blocked_sum;
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  check (damaged > 0) "the clean run left no entries to damage";
  check (clean_sum.failed = 0) "clean run had failed experiments";
  check
    (String.equal damaged_out clean_out)
    "damaged-store tables differ from clean run";
  check (hits = 0) "a damaged entry was served";
  check (quarantined = damaged) "not every damaged entry was quarantined once";
  check (damaged_sum.failed = 0) "damaged-store run had failed experiments";
  check
    (String.equal blocked_out clean_out)
    "unwritable-store tables differ from clean run";
  check (writes = 0) "an entry was written to the unwritable store";
  check (write_failures > 0) "no write to the unwritable store failed";
  check (blocked_sum.failed = 0) "unwritable-store run had failed experiments";
  report "fault-smoke"
    (Printf.sprintf
       "byte-identical tables over %d damaged entries and an unwritable store"
       damaged)
    !failures

(* ---- obs-smoke: the observability gate ----

   Runs the quick experiment suite three times: once with tracing off
   and the disk store bypassed, so every product is computed untraced;
   then with span recording on, against an empty isolated store (the
   cold run); then traced again over the store that run filled, after
   emptying the memo tables (the warm run).  Passes only if (1) both
   traced runs' tables are byte-identical to the untraced run's —
   instrumentation must never leak into results; (2) the cold run
   records a [compile] span per workload and every [profile] and
   [trace] simulation, while the warm run records none of them and
   misses the store nowhere; (3) each traced run's trace file parses
   as JSON and its traceEvents cover all six pipeline stages, whose
   spans together cover at least [min_stage_coverage] of the run's
   wall time, so a run explains itself cold and warm (the prewarm
   opens the first five, the miss matrix and subset walk included,
   and [stage.render] wraps the parallel render); (4) a
   disabled Obs.span really is a no-op branch (a generous absolute
   bound on a tight loop of disabled spans, so a pessimised fast path
   fails loudly without making the gate timing-flaky); and (5) every
   span name occurs in each trace file exactly as often as
   Obs.summaries counts it, so [bpredict stats] and [BALLARUS_TRACE]
   agree. *)

let stage_span_names =
  [
    "stage.load_all"; "stage.miss_matrix"; "stage.subset"; "stage.traces";
    "stage.datasets"; "stage.render";
  ]

let min_stage_coverage = 0.9

(* Seconds during which at least one [stage.*] span was open. *)
let stage_seconds events =
  let intervals =
    List.sort compare
      (List.filter_map
         (fun (e : Obs.event) ->
           if String.starts_with ~prefix:"stage." e.name then
             Some (e.ts_us, e.ts_us +. e.dur_us)
           else None)
         events)
  in
  let rec merge covered (lo, hi) = function
    | [] -> covered +. (hi -. lo)
    | (s, e) :: rest ->
      if s > hi then merge (covered +. (hi -. lo)) (s, e) rest
      else merge covered (lo, Float.max hi e) rest
  in
  match intervals with
  | [] -> 0.
  | first :: rest -> merge 0. first rest /. 1e6

(* Spans a cold quick run records: one compile per workload, a
   profile per (workload, dataset) and a trace per traced workload. *)
let cold_span_counts =
  [ ("compile", 23); ("profile", 56); ("trace", 7) ]

(* The name of every event in a Chrome trace file. *)
let trace_event_names path =
  match Obs.Json.member "traceEvents" (Obs.Json.parse (read_file path)) with
  | Some (Obs.Json.Arr evs) ->
    List.filter_map
      (fun e ->
        match Obs.Json.member "name" e with
        | Some (Obs.Json.Str n) -> Some n
        | _ -> None)
      evs
  | _ -> []

(* One traced quick run: its tables, summary, and the checks of its
   trace file, [label]ling each failure, and the count of each span
   name in the file. *)
let traced_run ~label ~trace_path check =
  Obs.reset_events ();
  Obs.Metrics.reset ();
  Obs.enable ();
  let t0 = Unix.gettimeofday () in
  let out, sum = render_quick () in
  let run_s = Unix.gettimeofday () -. t0 in
  Obs.disable ();
  let nevents = List.length (Obs.events ()) in
  let coverage = stage_seconds (Obs.events ()) /. run_s in
  let trace_names =
    Fun.protect
      ~finally:(fun () -> try Sys.remove trace_path with Sys_error _ -> ())
      (fun () ->
        Obs.write_trace trace_path;
        trace_event_names trace_path)
  in
  let in_trace name =
    List.length (List.filter (String.equal name) trace_names)
  in
  Printf.printf
    "%s trace: %d events, %d distinct names -> %s; stage spans cover %.1f%% \
     of %.3f s\n"
    label nevents
    (List.length (List.sort_uniq String.compare trace_names))
    trace_path (100. *. coverage) run_s;
  let check cond msg = check cond (label ^ ": " ^ msg) in
  check (sum.Experiments.Driver.failed = 0) "permanent failures";
  check (nevents > 0) "no spans were recorded";
  List.iter
    (fun stage ->
      check
        (List.mem stage trace_names)
        (Printf.sprintf "trace JSON has no span for %s" stage))
    stage_span_names;
  check (List.mem "experiment" trace_names) "trace JSON has no experiment spans";
  check (coverage >= min_stage_coverage)
    (Printf.sprintf "stage spans cover %.1f%% of the run, below %.0f%%"
       (100. *. coverage) (100. *. min_stage_coverage));
  let summaries = Obs.summaries () in
  List.iter
    (fun (name, (s : Obs.summary)) ->
      check (in_trace name = s.count)
        (Printf.sprintf "%s: %d spans in the trace, %d in the summaries" name
           (in_trace name) s.count))
    summaries;
  check
    (List.for_all (fun n -> List.mem_assoc n summaries) trace_names)
    "a span name in the trace has no summary";
  (out, sum, nevents, in_trace)

let obs_smoke () =
  Printf.printf "==== obs-smoke ====\n%!";
  let trace_path = Printf.sprintf "_obs_trace_%d.json" (Unix.getpid ()) in
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  Obs.disable ();
  Cache.Store.set_enabled false;
  let plain_out, plain_sum = render_quick () in
  check (plain_sum.failed = 0) "untraced run had permanent failures";
  with_isolated_store "obs" @@ fun _ ->
  let cold_out, cold_sum, cold_events, cold_count =
    traced_run ~label:"cold" ~trace_path check
  in
  let warm_out, warm_sum, warm_events, warm_count =
    traced_run ~label:"warm" ~trace_path check
  in
  let warm_misses = metric "cache.miss" in
  (* disabled-span overhead: 10M no-op spans must be branch-cheap *)
  let niter = 10_000_000 in
  let acc = ref 0 in
  let t_disabled =
    wall (fun () ->
        for i = 1 to niter do
          acc := Obs.span ~name:"noop" (fun () -> !acc + i)
        done)
  in
  Printf.printf "disabled span overhead: %.1f ns/span\n"
    (t_disabled /. float_of_int niter *. 1e9);
  Printf.printf "warm run: %d cache misses\n" warm_misses;
  Format.printf "untraced run:    %a" Experiments.Driver.pp_summary plain_sum;
  Format.printf "traced cold run: %a" Experiments.Driver.pp_summary cold_sum;
  Format.printf "traced warm run: %a" Experiments.Driver.pp_summary warm_sum;
  check
    (String.equal cold_out plain_out)
    "traced cold run tables differ from untraced run";
  check
    (String.equal warm_out plain_out)
    "traced warm run tables differ from untraced run";
  List.iter
    (fun (name, n) ->
      check (cold_count name = n)
        (Printf.sprintf "cold: %d %s spans, expected %d" (cold_count name)
           name n);
      check (warm_count name = 0)
        (Printf.sprintf "warm: %d %s spans, expected none" (warm_count name)
           name))
    cold_span_counts;
  check (warm_misses = 0) "warm run missed the store";
  check (t_disabled < 2.0) "disabled spans cost far more than a branch";
  report "obs-smoke"
    (Printf.sprintf
       "byte-identical tables, %d cold and %d warm spans exported" cold_events
       warm_events)
    !failures

(* ---- contract-smoke: the behaviour contract, end to end ----

   Runs [bpredict experiment all] as a child process, the way a user
   does, in six cases: [-j 1] with [BALLARUS_NO_CACHE=1]; [-j 4] cold
   on an empty private store; [-j 4] warm on that store; [--quick -j 2]
   warm; then, on the store emptied again, [--quick -j 2] cold and a
   full [-j 2] run on the store it filled.  Each must exit 0, report
   [25 passed, 0 failed] on stderr, and print the 25 sections in
   registry order, each equal to its golden snapshot
   ([graph2.full.expected] for graph2 in a full run).  The binary and
   the snapshots are found next to this executable, where the alias
   rule's dependencies put them. *)

let here = Filename.dirname Sys.executable_name
let bpredict = Filename.concat here "../bin/bpredict.exe"
let golden file = read_file (Filename.concat here ("golden/" ^ file))

(* [bpredict args] with the store in [store], the settings [env] and
   every other BALLARUS_ setting removed; its exit code, stdout and
   stderr. *)
let run_bpredict ~store ~env args =
  let env =
    Array.of_list
      ((("BALLARUS_CACHE_DIR=" ^ store) :: env)
      @ List.filter
          (fun v -> not (String.starts_with ~prefix:"BALLARUS_" v))
          (Array.to_list (Unix.environment ())))
  in
  let out = Filename.concat store "stdout"
  and err = Filename.concat store "stderr" in
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let fo = fd out and fe = fd err in
  let pid =
    Unix.create_process_env bpredict
      (Array.of_list (bpredict :: "experiment" :: "all" :: args))
      env Unix.stdin fo fe
  in
  Unix.close fo;
  Unix.close fe;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* The sections of a run's stdout, in order: (title, body), the body
   being everything between its header line and the next header. *)
let sections out =
  let n = String.length out in
  let header l =
    let k = String.length l in
    if k > 10 && String.starts_with ~prefix:"==== " l
       && String.ends_with ~suffix:" ====" l
    then Some (String.sub l 5 (k - 10))
    else None
  in
  (* (title, where its header starts, where its body starts) *)
  let rec heads i acc =
    if i >= n then List.rev acc
    else begin
      let eol = Option.value (String.index_from_opt out i '\n') ~default:n in
      let acc =
        match header (String.sub out i (eol - i)) with
        | Some t -> (t, i, min n (eol + 1)) :: acc
        | None -> acc
      in
      heads (eol + 1) acc
    end
  in
  let rec bodies = function
    | (t, _, b) :: ((_, next, _) :: _ as rest) ->
      (t, String.sub out b (next - b)) :: bodies rest
    | [ (t, _, b) ] -> [ (t, String.sub out b (n - b)) ]
    | [] -> []
  in
  bodies (heads 0 [])

let contract_smoke () =
  Printf.printf "==== contract-smoke ====\n%!";
  let store = Printf.sprintf "_contract_cache_%d" (Unix.getpid ()) in
  let exps = Experiments.Driver.all in
  let expected ~quick =
    List.map
      (fun (e : Experiments.Driver.experiment) ->
        let file =
          if e.id = "graph2" && not quick then "graph2.full.expected"
          else e.id ^ ".expected"
        in
        (e.title, "\n" ^ golden file ^ "\n"))
      exps
  in
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  let case ?(env = []) label ~quick args =
    let t0 = Unix.gettimeofday () in
    let code, out, err = run_bpredict ~store ~env args in
    let got = sections out and want = expected ~quick in
    let summary = Printf.sprintf "%d passed, 0 failed" (List.length exps) in
    Printf.printf "%-26s exit %d, %d sections, %.2f s\n%!" label code
      (List.length got) (Unix.gettimeofday () -. t0);
    let check cond msg = check cond (label ^ ": " ^ msg) in
    check (code = 0) (Printf.sprintf "exit %d" code);
    check (contains err summary) ("stderr lacks " ^ summary);
    check
      (List.map fst got = List.map fst want)
      "sections missing or not in registry order";
    List.iter2
      (fun (e : Experiments.Driver.experiment) (title, body) ->
        match List.assoc_opt title got with
        | Some b when String.equal b body -> ()
        | Some _ -> check false (e.id ^ " differs from its golden")
        | None -> ())
      exps want
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat store f))
        (try Sys.readdir store with Sys_error _ -> [||]);
      try Sys.rmdir store with Sys_error _ -> ())
    (fun () ->
      Unix.mkdir store 0o755;
      case "-j 1 uncached" ~env:[ "BALLARUS_NO_CACHE=1" ] ~quick:false
        [ "-j"; "1" ];
      case "-j 4 cold" ~quick:false [ "-j"; "4" ];
      case "-j 4 warm" ~quick:false [ "-j"; "4" ];
      case "--quick -j 2 warm" ~quick:true [ "--quick"; "-j"; "2" ];
      (* a full run over a store a quick run filled: the two share the
         per-order averages but not the subset walk *)
      Array.iter
        (fun f -> Sys.remove (Filename.concat store f))
        (Sys.readdir store);
      case "--quick -j 2 cold" ~quick:true [ "--quick"; "-j"; "2" ];
      case "-j 2 after --quick" ~quick:false [ "-j"; "2" ]);
  report "contract-smoke"
    "six runs print the goldens in registry order" !failures

let gates =
  [
    ("perf-smoke", perf_smoke);
    ("fault-smoke", fault_smoke);
    ("obs-smoke", obs_smoke);
    ("contract-smoke", contract_smoke);
  ]
