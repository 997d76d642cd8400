(* The test runner: [main.exe SUITE [alcotest arguments]] runs one
   suite, e.g. [main.exe sim test fuel].  [dune runtest] runs each
   suite in its own process (see test/dune), so they run in parallel
   and no suite's process-wide state reaches another's. *)

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
  let argv = Sys.argv in
  match
    if Array.length argv < 2 then None else List.assoc_opt argv.(1) suites
  with
  | Some tests ->
    let rest = Array.sub argv 2 (Array.length argv - 2) in
    Alcotest.run ~argv:(Array.append [| argv.(0) |] rest) argv.(1) tests
  | None ->
    if Array.length argv >= 2 then prerr_endline ("unknown suite " ^ argv.(1));
    prerr_endline "usage: main.exe SUITE [alcotest arguments]";
    prerr_endline ("suites: " ^ String.concat " " (List.map fst suites));
    exit 2
