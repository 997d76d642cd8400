(* bpredict: command-line front end to the Ball-Larus program-based
   branch predictor.

   Subcommands:
     compile    compile a MiniC file and print the disassembly
     cfg        print a procedure's CFG (text or dot)
     predict    annotate every branch with class, heuristics, prediction
     profile    run a program and report per-predictor miss rates
     trace      run the IPBC trace analysis
     layout     re-linearise code along predicted traces and measure it
     experiment run one of the paper's tables/figures (or "all")
     stats      run experiments and print their counters and span timings
     fuzz       differential fuzzer for the whole pipeline
     list       list workloads and experiments *)

open Cmdliner

(* A program source: a built-in workload, or a MiniC file wrapped as a
   workload with one empty dataset.  A path that cannot be read as a
   file (missing, a directory, unreadable) is reported without the
   system's error text. *)
let workload_of src =
  match Workloads.Registry.find src with
  | wl -> wl
  | exception Not_found -> (
    match In_channel.with_open_bin src In_channel.input_all with
    | text ->
      Workloads.Workload.make ~name:src ~description:"MiniC file" ~lang:C
        ~datasets:[ Sim.Dataset.make ~name:"empty" [||] ] text
    | exception Sys_error _ ->
      failwith
        (Printf.sprintf "%s: not a workload name and not a file" src))

let load src = Experiments.Bench_run.load (workload_of src)

let src_arg =
  let doc = "A MiniC source file, or the name of a built-in workload." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE" ~doc)

(* Domain count for the parallel sections of the experiment suite.
   Falls back to the machine's recommended domain count; -j 1 forces
   the sequential path. *)
let jobs_arg =
  let doc =
    "Number of domains for parallel sections (default: the machine's \
     recommended domain count; 1 runs sequentially)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let apply_jobs = function
  | Some n when n >= 1 -> Par.Pool.set_jobs n
  | Some n -> failwith (Printf.sprintf "-j %d: need at least one domain" n)
  | None -> ()

let handle_errors f =
  try f () with
  | Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Mips.Program.Unknown_procedure p ->
    Printf.eprintf "error: no procedure %s\n" p;
    exit 1
  | Sim.Machine.Fault msg | Sim.Machine.Out_of_fuel msg ->
    Printf.eprintf "runtime fault: %s\n" msg;
    exit 2

(* ---- compile ---- *)

let compile_cmd =
  let run src =
    handle_errors (fun () ->
        let prog = Workloads.Workload.compile (workload_of src) in
        Format.printf "%a" Mips.Program.pp prog)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile MiniC and print the disassembly")
    Term.(const run $ src_arg)

(* ---- cfg ---- *)

let cfg_cmd =
  let proc_arg =
    Arg.(value & opt (some string) None & info [ "p"; "proc" ] ~docv:"PROC"
           ~doc:"Procedure to dump (default: all).")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot format.")
  in
  let run src proc dot =
    handle_errors (fun () ->
        let prog = Workloads.Workload.compile (workload_of src) in
        let dump (p : Mips.Program.proc) =
          let g = Cfg.Graph.build p in
          if dot then Format.printf "%a" Cfg.Graph.to_dot g
          else begin
            Format.printf "%s:@." p.name;
            Format.printf "%a@." Cfg.Graph.pp g
          end
        in
        match proc with
        | Some name -> dump (Mips.Program.find_proc prog name)
        | None -> Array.iter dump prog.procs)
  in
  Cmd.v
    (Cmd.info "cfg" ~doc:"Print control-flow graphs")
    Term.(const run $ src_arg $ proc_arg $ dot_arg)

(* ---- predict ---- *)

let predict_cmd =
  let run src =
    handle_errors (fun () ->
        let { Experiments.Bench_run.prog; db; _ } = load src in
        let order = Predict.Combined.paper_order in
        Format.printf
          "branch predictions (order: %s; T = predict taken)@.@."
          (String.concat " " (List.map Predict.Heuristic.name order));
        Array.iter
          (fun (br : Predict.Database.branch) ->
            let dir, source = Predict.Combined.predict_non_loop order br in
            let where =
              Format.asprintf "%s+%d" prog.procs.(br.proc).name br.pc
            in
            let insn =
              Mips.Insn.to_string prog.procs.(br.proc).body.(br.pc)
            in
            match br.cls with
            | Predict.Classify.Loop_branch ->
              Format.printf "%-18s %-24s loop      %s  (loop predictor)@."
                where insn
                (if br.loop_pred then "T" else "F")
            | Predict.Classify.Non_loop_branch ->
              let why =
                match source with
                | Predict.Combined.By h -> Predict.Heuristic.name h
                | Predict.Combined.Default -> "Default"
              in
              Format.printf "%-18s %-24s non-loop  %s  (%s)@." where insn
                (if dir then "T" else "F")
                why)
          db.branches)
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Annotate every conditional branch with its static prediction")
    Term.(const run $ src_arg)

(* ---- profile ---- *)

let profile_cmd =
  let run src =
    handle_errors (fun () ->
        let { Experiments.Bench_run.profile; db; _ } = load src in
        let branches = Array.to_list db.branches in
        let order = Predict.Combined.paper_order in
        let open Predict in
        Format.printf "instructions executed : %d@." profile.stats.instr_count;
        Format.printf "dynamic branches      : %d@."
          (Metrics.total_exec branches);
        Format.printf "output checksum       : %d@.@." profile.stats.checksum;
        let report name rate =
          Format.printf "%-22s: %s%% miss@." name (Experiments.Texttab.pct1 rate)
        in
        report "perfect (this dataset)" (Metrics.perfect_rate branches);
        report "heuristic (Ball-Larus)"
          (Metrics.miss_rate (Combined.predict order) branches);
        report "loop + random" (Metrics.miss_rate Combined.loop_rand_predict branches);
        report "BTFN"
          (Metrics.miss_rate (fun b -> b.Database.backward) branches);
        report "always taken" (Metrics.miss_rate (fun _ -> true) branches))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a program and compare static predictors against its profile")
    Term.(const run $ src_arg)

(* ---- trace ---- *)

let trace_cmd =
  let run src =
    handle_errors (fun () ->
        match Workloads.Registry.find src with
        | exception Not_found ->
          failwith "trace analysis requires a built-in workload name"
        | _ -> Experiments.Traces.graph_for Format.std_formatter src)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Instructions-per-break-in-control analysis")
    Term.(const run $ src_arg)

(* ---- layout ---- *)

let layout_cmd =
  let run src =
    handle_errors (fun () ->
        let { Experiments.Bench_run.wl; prog; profile; db; _ } = load src in
        let laid =
          Predict.Layout.apply prog
            ~predict:
              (Predict.Layout.predictor db
                 (Predict.Combined.predict Predict.Combined.paper_order))
        in
        let t0 = Array.fold_left (Array.fold_left ( + )) 0 profile.taken in
        let t1, _, s1 =
          Predict.Layout.taken_transfers laid
            (Workloads.Workload.primary_dataset wl)
        in
        if profile.stats.checksum <> s1.checksum then
          failwith "layout changed program behaviour";
        Format.printf
          "laid out %d procedures along predicted traces@."
          (Array.length prog.procs);
        Format.printf "taken conditional branches: %d -> %d (of %d executed)@."
          t0 t1
          (Sim.Profile.branch_execs profile);
        Format.printf "instructions executed: %d -> %d (checksum unchanged)@."
          profile.stats.instr_count s1.instr_count)
  in
  Cmd.v
    (Cmd.info "layout"
       ~doc:"Re-linearise code along predicted traces and measure the effect")
    Term.(const run $ src_arg)

(* ---- experiment and stats ---- *)

let quick_arg =
  Arg.(value & flag & info [ "quick" ]
         ~doc:"Cap the subset experiment at 20,000 trials.")

(* Run experiment [id], or the whole suite for "all", printing the
   tables to [ppf]; the exit code of the run.  Only the suite prewarms:
   a single experiment computes just what it reads.  The summary goes
   to stderr for the suite, and for a single experiment only when it
   failed. *)
let run_experiments ~quick ppf id =
  let exps, warm =
    if String.equal id "all" then (Experiments.Driver.all, true)
    else
      match Experiments.Driver.find id with
      | Some e -> ([ e ], false)
      | None ->
        Printf.eprintf "error: unknown experiment %s; valid ids are:\n" id;
        List.iter
          (fun (e : Experiments.Driver.experiment) ->
            Printf.eprintf "  %s\n" e.id)
          Experiments.Driver.all;
        Printf.eprintf "  all\n";
        exit 1
  in
  let summary = Experiments.Driver.run_list ~quick ~warm exps ppf in
  let code = Experiments.Driver.exit_code summary in
  if warm || code <> 0 then
    Experiments.Driver.pp_summary Format.err_formatter summary;
  code

let experiment_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id (table1..table7, graph1..graph13, \
                 ablation-*, loopshapes) or 'all'.")
  in
  let run id quick jobs =
    handle_errors (fun () ->
        apply_jobs jobs;
        exit (run_experiments ~quick Format.std_formatter id))
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's tables/figures")
    Term.(const run $ id_arg $ quick_arg $ jobs_arg)

let stats_cmd =
  let id_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID"
           ~doc:"Experiment id to run under instrumentation, or 'all'.")
  in
  let run id quick jobs =
    handle_errors (fun () ->
        apply_jobs jobs;
        (* the span table is computed from the recorded events *)
        Obs.enable ();
        let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
        let code = run_experiments ~quick null id in
        Obs.Metrics.dump Format.std_formatter;
        Format.printf "spans (seconds):@.";
        Format.printf "  %-36s %8s %10s %10s %10s@." "" "count" "p50" "p95"
          "max";
        List.iter
          (fun (name, (s : Obs.summary)) ->
            Format.printf "  %-36s %8d %10.6f %10.6f %10.6f@." name s.count
              s.p50 s.p95 s.max)
          (Obs.summaries ());
        exit code)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run experiments under instrumentation and print the metrics \
             counters, then each span name's count and nearest-rank \
             p50/p95/max duration from the recorded spans; tables are \
             discarded")
    Term.(const run $ id_arg $ quick_arg $ jobs_arg)

(* ---- fuzz ---- *)

(* Seeded random MiniC programs, each cross-checked by every oracle of
   [Fuzz.Oracle]; failing cases are shrunk to reproducers under the
   failure directory.  The exit status is the number of failing cases
   (capped at 99), so [fuzz --seed 42 --count 200] doubles as a CI
   gate. *)
let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED"
           ~doc:"Run seed; every case derives its own seed from it.")
  in
  let count_arg =
    Arg.(value & opt int 500 & info [ "n"; "count" ] ~docv:"N"
           ~doc:"Number of random programs to generate and check.")
  in
  let size_arg =
    Arg.(value & opt int Fuzz.Harness.default.max_size
         & info [ "size" ] ~docv:"N"
             ~doc:"Statement-budget ceiling for generated programs.")
  in
  let dir_arg =
    Arg.(value & opt string Fuzz.Harness.default.failure_dir
         & info [ "failure-dir" ] ~docv:"DIR"
             ~doc:"Directory for shrunk failing reproducers.")
  in
  let dump_arg =
    Arg.(value & opt (some int) None & info [ "dump" ] ~docv:"CASE"
           ~doc:"Print the generated source of case $(docv) and exit \
                 (debugging aid; no oracles run).")
  in
  let run seed count max_size failure_dir dump =
    match dump with
    | Some i ->
      print_string
        (Fuzz.Gen.to_source (snd (Fuzz.Harness.case ~seed ~max_size i)))
    | None ->
      let cfg =
        { Fuzz.Harness.seed; count; max_size; failure_dir }
      in
      let t0 = Unix.gettimeofday () in
      let outcome = Fuzz.Harness.run ~log:print_endline cfg in
      let dt = Unix.gettimeofday () -. t0 in
      let nfail = List.length outcome.failures in
      Printf.printf "%d cases, %d divergence(s), %.1fs (seed %d)\n"
        outcome.cases nfail dt seed;
      if nfail > 0 then begin
        Printf.printf "reproducers under %s/\n" failure_dir;
        exit (min 99 nfail)
      end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzer for the MiniC -> MIPS -> prediction \
             pipeline; exits with the number of failing cases")
    Term.(
      const run $ seed_arg $ count_arg $ size_arg $ dir_arg $ dump_arg)

(* ---- list ---- *)

let list_cmd =
  let run () =
    Format.printf "workloads:@.";
    List.iter
      (fun (w : Workloads.Workload.t) ->
        Format.printf "  %-10s %s@." w.name w.description)
      Workloads.Registry.all;
    Format.printf "@.experiments:@.";
    List.iter
      (fun (e : Experiments.Driver.experiment) ->
        Format.printf "  %-16s %s@." e.id e.title)
      Experiments.Driver.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List built-in workloads and experiments")
    Term.(const run $ const ())

let main_cmd =
  let doc = "program-based branch prediction (Ball & Larus, PLDI 1993)" in
  Cmd.group (Cmd.info "bpredict" ~version:"1.0.0" ~doc)
    [ compile_cmd; cfg_cmd; predict_cmd; profile_cmd; trace_cmd; layout_cmd;
      experiment_cmd; stats_cmd; fuzz_cmd; list_cmd ]

let () = exit (Cmd.eval main_cmd)
