(* Tests for the supervision layer: the fault taxonomy, supervised
   task outcomes and their counters, wall-clock timeouts, and graceful
   suite degradation when a runaway program exhausts its fuel. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let metric name = Obs.Metrics.value (Obs.Metrics.counter name)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

exception Boom

let test_taxonomy () =
  let open Robust.Fault in
  checkb "out of fuel" true
    (kind_of_exn (Sim.Machine.Out_of_fuel "m") = Fuel_exhausted);
  checkb "timeout" true
    (kind_of_exn (Timed_out { task = "t"; seconds = 1.0 }) = Timeout);
  checkb "unknown is hard" true (kind_of_exn Boom = Hard);
  (* pool wrappers are peeled: the inner exception decides *)
  let bt = Printexc.get_raw_backtrace () in
  let wrapped =
    Par.Pool.Task_failed
      { index = 3; exn = Sim.Machine.Out_of_fuel "m"; backtrace = bt }
  in
  checkb "wrapper peeled" true (kind_of_exn wrapped = Fuel_exhausted);
  checkb "unwrap returns inner" true
    (unwrap wrapped = Sim.Machine.Out_of_fuel "m")

let test_supervise_outcomes () =
  let ok = Robust.Supervise.run ~label:"ok" (fun () -> 7) in
  checkb "completed" true (ok.status = Robust.Supervise.Completed);
  checkb "value" true (ok.value = Some 7);
  (* a failing body runs exactly once: nothing is retried *)
  let calls = ref 0 in
  let failures = metric "robust.task_failures" in
  let hard =
    Robust.Supervise.run ~label:"hard" (fun () ->
        incr calls;
        raise Boom)
  in
  checki "body ran once" 1 !calls;
  checkb "no value" true (hard.value = None);
  checki "robust.task_failures counts it" (failures + 1)
    (metric "robust.task_failures");
  (match hard.status with
  | Robust.Supervise.Failed f ->
    checkb "classified hard" true (f.kind = Robust.Fault.Hard);
    checkb "label kept" true (String.equal f.task "hard")
  | _ -> Alcotest.fail "expected Failed")

let test_timeout () =
  (* the body sleeps well past the deadline; the supervisor must give
     up at the deadline, not wait for the body (which, orphaned,
     finishes on its own) *)
  let t0 = Unix.gettimeofday () in
  let calls = Atomic.make 0 in
  let o =
    Robust.Supervise.run ~timeout:0.05 ~label:"slow" (fun () ->
        Atomic.incr calls;
        Unix.sleepf 1.5)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match o.status with
  | Robust.Supervise.Failed f ->
    checkb "classified timeout" true (f.kind = Robust.Fault.Timeout)
  | _ -> Alcotest.fail "expected a timeout failure");
  checki "not retried" 1 (Atomic.get calls);
  checkb "returned near the deadline" true (elapsed < 1.0);
  (* a fast body under the same deadline completes normally *)
  let o = Robust.Supervise.run ~timeout:5.0 ~label:"fast" (fun () -> 11) in
  checkb "fast body fine" true (o.value = Some 11)

(* Regression for the discarded-backtrace bug: the deadline poller
   used to re-raise a worker failure with a bare [raise], which starts
   a fresh backtrace at the poller — the frames of the code that
   actually failed were lost.  The worker now captures its raw
   backtrace and the poller re-raises with it intact, so the fault's
   backtrace must name this file. *)
let test_worker_backtrace_preserved () =
  Printexc.record_backtrace true;
  (* non-tail recursion so the frames survive into the backtrace *)
  let rec deep_failing_helper n =
    if n = 0 then failwith "deep-failure"
    else 1 + deep_failing_helper (n - 1)
  in
  let o =
    Robust.Supervise.run ~timeout:5.0 ~label:"deep" (fun () ->
        Printexc.record_backtrace true;
        ignore (Sys.opaque_identity (deep_failing_helper 5)))
  in
  match o.status with
  | Robust.Supervise.Failed f ->
    checkb "classified hard" true (f.kind = Robust.Fault.Hard);
    checkb "message kept" true (contains f.message "deep-failure");
    (match f.backtrace with
    | Some bt ->
      checkb "backtrace names the failing file" true (contains bt "test_robust")
    | None -> Alcotest.fail "expected a backtrace on the fault")
  | _ -> Alcotest.fail "expected Failed"

let test_fuel_degradation () =
  (* the acceptance scenario: a deliberately non-terminating MiniC
     program fails with Fuel_exhausted — it does not hang — and the
     rest of the suite completes normally *)
  let infinite = Minic.Frontend.compile "int main() { while (1) { } return 0; }" in
  let empty = Sim.Dataset.make ~name:"empty" [||] in
  let bad =
    {
      Experiments.Driver.id = "runaway";
      title = "Runaway program";
      run =
        (fun ppf ->
          ignore (Sim.Machine.run ~max_instrs:200_000 infinite empty);
          Format.fprintf ppf "unreachable@.");
      quick_run = None;
    }
  in
  let good =
    {
      Experiments.Driver.id = "fine";
      title = "A well-behaved experiment";
      run = (fun ppf -> Format.fprintf ppf "fine-table-output@.");
      quick_run = None;
    }
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let fuel_exhausted = metric "robust.fuel_exhausted" in
  let s = Experiments.Driver.run_list ~warm:false [ bad; good ] ppf in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  checki "one failed" 1 s.failed;
  checki "one passed" 1 s.passed;
  (match List.assoc "runaway" s.results with
  | Experiments.Driver.Failed f ->
    checkb "classified fuel-exhausted" true
      (f.kind = Robust.Fault.Fuel_exhausted)
  | _ -> Alcotest.fail "expected the runaway experiment to fail");
  checki "robust.fuel_exhausted counts it" (fuel_exhausted + 1)
    (metric "robust.fuel_exhausted");
  checkb "failure banner printed" true (contains out "FAILED");
  checkb "suite continued past the failure" true
    (contains out "fine-table-output");
  checki "degraded exit code" 3 (Experiments.Driver.exit_code s);
  (* summary report counts both *)
  let sbuf = Buffer.create 128 in
  let sppf = Format.formatter_of_buffer sbuf in
  Experiments.Driver.pp_summary sppf s;
  Format.pp_print_flush sppf ();
  checkb "summary mentions the failure" true
    (contains (Buffer.contents sbuf) "runaway")

let () =
  Alcotest.run "robust"
    [
      ( "fault",
        [
          Alcotest.test_case "taxonomy" `Quick test_taxonomy;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "outcomes" `Quick test_supervise_outcomes;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "worker backtrace preserved" `Quick
            test_worker_backtrace_preserved;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "fuel exhaustion degrades gracefully" `Quick
            test_fuel_degradation;
        ] );
    ]
