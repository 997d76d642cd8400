(* The test runner: [main.exe SUITE [alcotest arguments]] runs one
   suite, e.g. [main.exe sim test fuel], and [main.exe GATE] one of the
   tier-2 gates of [Gates].  [dune runtest] runs each suite in its own
   process (see test/dune), so they run in parallel and no suite's
   process-wide state reaches another's. *)

let suites =
  [
    ("mips", Test_mips.tests);
    ("cfg", Test_cfg.tests);
    ("minic", Test_minic.tests);
    ("sim", Test_sim.tests);
    ("predict", Test_predict.tests);
    ("tracing", Test_tracing.tests);
    ("workloads", Test_workloads.tests);
    ("experiments", Test_experiments.tests);
    ("layout", Test_layout.tests);
    ("interp", Test_interp.tests);
    ("par", Test_par.tests);
    ("fuzz", Test_fuzz.tests);
    ("decode", Test_decode.tests);
    ("cache", Test_cache.tests);
    ("robust", Test_robust.tests);
    ("obs", Test_obs.tests);
  ]

let () =
  match Array.to_list Sys.argv with
  | exe :: name :: rest when List.mem_assoc name suites ->
    Alcotest.run ~argv:(Array.of_list (exe :: rest)) name
      (List.assoc name suites)
  | [ _; name ] when List.mem_assoc name Gates.gates ->
    exit ((List.assoc name Gates.gates) ())
  | args ->
    (match args with
     | _ :: name :: _ :: _ when List.mem_assoc name Gates.gates ->
       prerr_endline (name ^ " takes no arguments")
     | _ :: name :: _ -> prerr_endline ("unknown suite or gate " ^ name)
     | _ -> ());
    prerr_endline "usage: main.exe (SUITE [alcotest arguments] | GATE)";
    prerr_endline ("suites: " ^ String.concat " " (List.map fst suites));
    prerr_endline ("gates: " ^ String.concat " " (List.map fst Gates.gates));
    exit 2
