(* Tests for the lib/par domain pool: fork-join correctness, result
   determinism across pool widths, exception propagation. *)

open Check

let with_jobs = Par.Pool.with_jobs

let widths = [ 1; 2; 3; 4 ]

(* [body i] once for every [0 <= i < n], across the pool. *)
let each n body = ignore (Par.Pool.parallel_map_list body (List.init n Fun.id))

let test_jobs_clamped () =
  with_jobs 0 (fun () -> checki "clamped to 1" 1 (Par.Pool.default_jobs ()));
  with_jobs 3 (fun () -> checki "width kept" 3 (Par.Pool.default_jobs ()))

let test_run_covers_every_index () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              let out =
                Par.Pool.parallel_map_list
                  (fun i ->
                    (* each slot is written by exactly one element *)
                    hits.(i) <- hits.(i) + 1;
                    i)
                  (List.init n Fun.id)
              in
              checkb "results in list order" true (out = List.init n Fun.id);
              Array.iter (fun h -> checki "hit exactly once" (min n 1) h)
                (if n = 0 then [| 0 |] else hits))
            [ 0; 1; 7; 64; 1000 ]))
    widths

let test_parallel_map_matches_sequential () =
  let input = List.init 257 (fun i -> (i * 37) mod 101) in
  let f x = (x * x) + 1 in
  let expected = List.map f input in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          checkb "map_list equals sequential" true
            (Par.Pool.parallel_map_list f input = expected)))
    widths

let test_run_chunked () =
  (* a chunked sum: one element per chunk, partial sums added in
     chunk order *)
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let n = 1000 and chunk = 17 in
          let parts =
            Par.Pool.parallel_map_list
              (fun c ->
                let s = ref 0 in
                for i = c * chunk to min n ((c + 1) * chunk) - 1 do
                  s := !s + i
                done;
                !s)
              (List.init ((n + chunk - 1) / chunk) Fun.id)
          in
          checki "59 chunks" 59 (List.length parts);
          checki "sum of 0..n-1" (n * (n - 1) / 2) (List.fold_left ( + ) 0 parts)))
    widths

exception Boom

(* Raises [Boom] from a named frame, so a backtrace can be checked for
   the code that raised.  Backtrace recording is per domain: a task
   turns it on for whichever domain runs it. *)
let raise_boom () =
  Printexc.record_backtrace true;
  raise Boom
[@@inline never]

let test_exception_propagates () =
  (* a task exception re-raises in the caller as itself, at every
     width, the sequential path included *)
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          match each 64 (fun i -> if i = 13 then raise Boom) with
          | () -> Alcotest.fail "expected the task exception to surface"
          | exception Boom -> ()))
    [ 1; 2; 4; 8 ];
  (* the pool survives a failed job: the worker domains are unaffected
     and serve the next job normally *)
  with_jobs 4 (fun () ->
      (try each 8 (fun _ -> raise Boom) with Boom -> ());
      let sum = Atomic.make 0 in
      each 8 (fun i -> ignore (Atomic.fetch_and_add sum i));
      checki "pool still works" 28 (Atomic.get sum))

let test_exception_backtrace () =
  (* the backtrace the caller sees is the one captured where the task
     raised, on whichever domain ran it *)
  Printexc.record_backtrace true;
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          match each 16 (fun i -> if i = 5 then raise_boom ()) with
          | () -> Alcotest.fail "expected Boom"
          | exception Boom ->
            let bt =
              Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
            in
            checkb "backtrace names the raising code" true
              (contains bt "Test_par.raise_boom")))
    [ 1; 2; 4; 8 ]

let test_sequential_stops_at_failure () =
  (* a 1-domain job stops at the first failure *)
  with_jobs 1 (fun () ->
      let ran = ref 0 in
      (match
         each 100 (fun i ->
             incr ran;
             if i = 3 then raise Boom)
       with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom -> ());
      checki "stopped at the failure" 4 !ran)

let test_nested_data_parallel_sections () =
  (* back-to-back jobs on one pool reuse the same workers *)
  with_jobs 4 (fun () ->
      for round = 1 to 50 do
        let out = Par.Pool.parallel_map_list (fun x -> x + round) [ 1; 2; 3 ] in
        checkb "round result" true (out = [ 1 + round; 2 + round; 3 + round ])
      done)

let test_fewer_tasks_than_jobs () =
  (* a wide pool fed fewer elements than it has domains: every element
     still runs exactly once, and the results come back in order *)
  with_jobs 8 (fun () ->
      let hits = Array.make 3 0 in
      let out =
        Par.Pool.parallel_map_list
          (fun i ->
            hits.(i) <- hits.(i) + 1;
            i * 10)
          [ 0; 1; 2 ]
      in
      Array.iter (checki "exactly once" 1) hits;
      checkb "results in list order" true (out = [ 0; 10; 20 ]))

(* Regression for the lingering-job bug: after the join, the pool used
   to keep its last [job] record (and therefore the job's body closure,
   and everything that closure captured) alive until the next call.
   The job slot must be dropped as soon as the join completes — on both
   the success and the failure path. *)
let test_job_dropped_after_join () =
  with_jobs 4 (fun () ->
      each 8 (fun _ -> ());
      checkb "job slot cleared after success" false
        (Par.Pool.has_pending_job ());
      (try each 8 (fun _ -> raise Boom) with Boom -> ());
      checkb "job slot cleared after failure" false
        (Par.Pool.has_pending_job ());
      (* and repeatedly, across many jobs *)
      for _ = 1 to 20 do
        each 4 (fun _ -> ());
        checkb "still cleared" false (Par.Pool.has_pending_job ())
      done)

(* A [parallel_map_list] nested in a task of the same pool runs inline
   on the task's domain: every inner index runs exactly once, an inner exception
   reaches the task (or, uncaught, the outer caller) as itself, and the
   outer job stays the pool's job until it completes — a nested job
   posted to the pool would take the job slot and clear it on its own
   join. *)
let test_nested_run_inline () =
  with_jobs 3 (fun () ->
      let outer = Array.make 8 0 in
      let inner = Array.init 8 (fun _ -> Array.make 5 0) in
      let caught = Array.make 8 false in
      let kept = Array.make 8 false in
      each 8 (fun i ->
          each 5 (fun j -> inner.(i).(j) <- inner.(i).(j) + 1);
          (match each 4 (fun j -> if j = 2 then raise Boom) with
          | () -> ()
          | exception Boom -> caught.(i) <- true);
          kept.(i) <- Par.Pool.has_pending_job ();
          outer.(i) <- outer.(i) + 1);
      Array.iter (checki "outer index once" 1) outer;
      Array.iter (Array.iter (checki "inner index once" 1)) inner;
      Array.iter (checkb "inner exception reached its task" true) caught;
      Array.iter (checkb "outer job kept its slot" true) kept;
      (match
         each 4 (fun i ->
             each 3 (fun j -> if i = 1 && j = 1 then raise Boom))
       with
      | () -> Alcotest.fail "expected the nested exception to surface"
      | exception Boom -> ());
      checkb "job slot cleared" false (Par.Pool.has_pending_job ());
      let sum = Atomic.make 0 in
      each 8 (fun i -> ignore (Atomic.fetch_and_add sum i));
      checki "pool still works" 28 (Atomic.get sum))

(* The pool follows the requested width: past a failure at index 3 a
   100-task job runs every task on a pool of several domains, and stops
   at the failure on one. *)
let test_default_pool_set_jobs () =
  let ran_past_failure () =
    let ran = Atomic.make 0 in
    (try
       each 100 (fun i ->
           Atomic.incr ran;
           if i = 3 then raise Boom)
     with Boom -> ());
    Atomic.get ran
  in
  with_jobs 3 (fun () ->
      checki "requested width" 3 (Par.Pool.default_jobs ());
      checki "pool width follows" 100 (ran_past_failure ());
      with_jobs 1 (fun () ->
          checki "re-created narrower" 4 (ran_past_failure ()));
      checki "outer width restored" 100 (ran_past_failure ()))

(* Once [with_jobs] returns, or raises, the width follows the
   recommended domain count again: no override is left behind. *)
let test_with_jobs_restores_no_override () =
  let recommended = Domain.recommended_domain_count () in
  checki "no override before" recommended (Par.Pool.default_jobs ());
  with_jobs 3 (fun () -> ());
  checki "no override after" recommended (Par.Pool.default_jobs ());
  (try with_jobs 2 (fun () -> raise Boom) with Boom -> ());
  checki "no override after a raise" recommended (Par.Pool.default_jobs ())

let tests =
  [
    ( "pool",
      [
        Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
        Alcotest.test_case "run covers indices" `Quick
          test_run_covers_every_index;
        Alcotest.test_case "map matches sequential" `Quick
          test_parallel_map_matches_sequential;
        Alcotest.test_case "chunked for" `Quick test_run_chunked;
        Alcotest.test_case "exceptions" `Quick test_exception_propagates;
        Alcotest.test_case "exception backtrace" `Quick
          test_exception_backtrace;
        Alcotest.test_case "sequential stops at first failure" `Quick
          test_sequential_stops_at_failure;
        Alcotest.test_case "job reuse" `Quick
          test_nested_data_parallel_sections;
        Alcotest.test_case "fewer tasks than jobs" `Quick
          test_fewer_tasks_than_jobs;
        Alcotest.test_case "job dropped after join" `Quick
          test_job_dropped_after_join;
        Alcotest.test_case "nested run inline" `Quick test_nested_run_inline;
        Alcotest.test_case "default pool" `Quick test_default_pool_set_jobs;
        Alcotest.test_case "with_jobs restores no override" `Quick
          test_with_jobs_restores_no_override;
      ] );
  ]
