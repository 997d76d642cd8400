(* Tests for the IPBC analysis: distributions, dividing lengths, and
   the analytic model of Graph 12. *)

open Check

let mk_result label lens =
  (* synthesise a Trace_run.result from a list of sequence lengths *)
  let counts = Array.make Sim.Trace_run.nbuckets 0 in
  let sums = Array.make Sim.Trace_run.nbuckets 0 in
  List.iter
    (fun len ->
      let b = min (len / Sim.Trace_run.bucket_width) (Sim.Trace_run.nbuckets - 1) in
      counts.(b) <- counts.(b) + 1;
      sums.(b) <- sums.(b) + len)
    lens;
  {
    Sim.Trace_run.label;
    seq_counts = counts;
    seq_sums = sums;
    breaks = List.length lens;
    cond_misses = List.length lens;
    cond_execs = 2 * List.length lens;
    instr_count = List.fold_left ( + ) 0 lens;
  }

let test_ipbc_average () =
  let d = Tracing.Ipbc.of_result (mk_result "x" [ 100; 100; 100; 100 ]) in
  checkb "ipbc = mean length" true (abs_float (d.ipbc -. 100.) < 1e-9);
  checkb "miss rate" true (abs_float (d.miss_rate -. 0.5) < 1e-9);
  checki "breaks" 4 d.total_breaks;
  checki "instrs" 400 d.total_instrs

let test_skewed_distribution () =
  (* many tiny sequences plus one huge one: the paper's spice2g6
     observation — the IPBC average underestimates where the
     instructions actually live *)
  let lens = List.init 99 (fun _ -> 5) @ [ 9505 ] in
  let d = Tracing.Ipbc.of_result (mk_result "skew" lens) in
  (* ipbc = 10000/100 = 100 *)
  checkb "ipbc is 100" true (abs_float (d.ipbc -. 100.) < 1e-9);
  (* but sequences below 100 hold under 5% of instructions *)
  checkb "few instructions below the average" true
    (Tracing.Ipbc.fraction_below d 100 < 0.05);
  (* while 99% of breaks are below it *)
  checkb "most breaks below the average" true
    (Tracing.Ipbc.breaks_below d 100 > 0.9);
  (* dividing length: over half the instructions live in the big
     sequence's bucket *)
  checkb "dividing length is large" true (Tracing.Ipbc.dividing_length d > 5000)

let test_cumulative_monotone () =
  let lens = [ 3; 17; 42; 256; 1024; 9999; 12000 ] in
  let d = Tracing.Ipbc.of_result (mk_result "m" lens) in
  let mono arr =
    let ok = ref true in
    for i = 1 to Array.length arr - 1 do
      if arr.(i) < arr.(i - 1) -. 1e-12 then ok := false
    done;
    !ok
  in
  checkb "by_instructions monotone" true (mono d.by_instructions);
  checkb "by_breaks monotone" true (mono d.by_breaks);
  checkb "ends at 1 (instructions)" true
    (abs_float (d.by_instructions.(Array.length d.by_instructions - 1) -. 1.)
    < 1e-9);
  checkb "ends at 1 (breaks)" true
    (abs_float (d.by_breaks.(Array.length d.by_breaks - 1) -. 1.) < 1e-9)

let test_model () =
  let open Tracing.Ipbc in
  checkb "m=1 gives 1 at s=1" true (abs_float (model ~miss_rate:1.0 1 -. 1.) < 1e-9);
  checkb "m=0 gives 0" true (abs_float (model ~miss_rate:0.0 100) < 1e-9);
  checkb "s=0 gives 0" true (abs_float (model ~miss_rate:0.3 0) < 1e-9);
  (* half-life of m=0.1 is about s=7 *)
  checkb "known value" true
    (abs_float (model ~miss_rate:0.1 7 -. (1. -. (0.9 ** 7.))) < 1e-12)

let prop_model_monotone_in_s =
  QCheck.Test.make ~name:"model increases with sequence length" ~count:100
    QCheck.(make Gen.(pair (float_range 0.01 0.5) (int_range 1 500)))
    (fun (m, s) ->
      Tracing.Ipbc.model ~miss_rate:m s
      <= Tracing.Ipbc.model ~miss_rate:m (s + 1) +. 1e-12)

let prop_model_monotone_in_m =
  QCheck.Test.make ~name:"model increases with miss rate" ~count:100
    QCheck.(make Gen.(pair (float_range 0.01 0.4) (int_range 1 100)))
    (fun (m, s) ->
      Tracing.Ipbc.model ~miss_rate:m s
      <= Tracing.Ipbc.model ~miss_rate:(m +. 0.05) s +. 1e-12)

let prop_distribution_consistent =
  QCheck.Test.make ~name:"distribution consistent with raw lengths" ~count:50
    QCheck.(make Gen.(list_size (int_range 1 40) (int_range 1 2000)))
    (fun lens ->
      let d = Tracing.Ipbc.of_result (mk_result "q" lens) in
      d.total_instrs = List.fold_left ( + ) 0 lens
      && d.total_breaks = List.length lens
      && Tracing.Ipbc.dividing_length d >= 0)

let tests =
  [
    ( "ipbc",
      [
        Alcotest.test_case "average" `Quick test_ipbc_average;
        Alcotest.test_case "skew" `Quick test_skewed_distribution;
        Alcotest.test_case "monotone" `Quick test_cumulative_monotone;
        Alcotest.test_case "model" `Quick test_model;
      ] );
    ( "properties",
      List.map qcheck
        [
          prop_model_monotone_in_s;
          prop_model_monotone_in_m;
          prop_distribution_consistent;
        ] );
  ]
