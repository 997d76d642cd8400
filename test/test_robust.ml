(* Tests for the supervision layer: the fault taxonomy, supervised
   task outcomes and their counters, failures raised inside pool tasks,
   and graceful suite degradation when a runaway program exhausts its
   fuel. *)

open Check

exception Boom

let test_taxonomy () =
  let open Robust.Fault in
  checkb "out of fuel" true
    (kind_of_exn (Sim.Machine.Out_of_fuel "m") = Fuel_exhausted);
  checkb "unknown is hard" true (kind_of_exn Boom = Hard)

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

(* A failure inside a pool task reaches the supervisor with the frames
   of the code that actually failed, on whichever domain ran it: the
   pool captures the raw backtrace where the task raised and re-raises
   with it intact, so the fault's backtrace must name this file. *)
let test_worker_backtrace_preserved () =
  Printexc.record_backtrace true;
  (* non-tail recursion so the frames survive into the backtrace *)
  let rec deep_failing_helper n =
    if n = 0 then failwith "deep-failure"
    else 1 + deep_failing_helper (n - 1)
  in
  let o =
    Par.Pool.with_jobs 4 (fun () ->
        Robust.Supervise.run ~label:"deep" (fun () ->
            Par.Pool.parallel_map_list
              (fun i ->
                (* recording is per domain *)
                Printexc.record_backtrace true;
                if i = 2 then
                  ignore (Sys.opaque_identity (deep_failing_helper 5)))
              [ 0; 1; 2; 3 ]))
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
  | Robust.Supervise.Failed f ->
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

(* An experiment whose body fails inside a pool task: the banner shows
   the task's own exception text, exactly as [Printexc.to_string]
   prints it, with no pool wrapper around it. *)
let test_pool_task_failure_banner () =
  let exn = Failure "task-five" in
  let e =
    {
      Experiments.Driver.id = "pooled";
      title = "Fails in a pool task";
      run =
        (fun _ ->
          ignore
            (Par.Pool.parallel_map_list
               (fun i -> if i = 5 then raise exn)
               (List.init 8 Fun.id)));
      quick_run = None;
    }
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let s = Experiments.Driver.run_list ~warm:false [ e ] ppf in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  checki "one failed" 1 s.failed;
  checkb "banner carries the task's own text" true
    (contains out
       (Printf.sprintf "!! pooled FAILED [hard]: %s\n" (Printexc.to_string exn)));
  (match List.assoc "pooled" s.results with
  | Robust.Supervise.Failed f ->
    checkb "message is the task's own text" true
      (String.equal f.message (Printexc.to_string exn))
  | _ -> Alcotest.fail "expected the pooled experiment to fail")

let tests =
  [
    ( "fault",
      [
        Alcotest.test_case "taxonomy" `Quick test_taxonomy;
      ] );
    ( "supervise",
      [
        Alcotest.test_case "outcomes" `Quick test_supervise_outcomes;
        Alcotest.test_case "worker backtrace preserved" `Quick
          test_worker_backtrace_preserved;
      ] );
    ( "degradation",
      [
        Alcotest.test_case "fuel exhaustion degrades gracefully" `Quick
          test_fuel_degradation;
        Alcotest.test_case "pool task failure banner" `Quick
          test_pool_task_failure_banner;
      ] );
  ]
