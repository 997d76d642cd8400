(* One in-flight fork-join job.  Indices are claimed through [next];
   [finished] counts completed bodies so the caller can wait for the
   stragglers that other domains are still running.  Stale workers that
   wake up after the job is drained claim an index >= total and leave
   without touching anything.  The first failure is recorded in the job
   itself (guarded by the pool mutex) — never in the pool — so an
   orphaned straggler from an earlier job can never poison a later
   one.  [backtrace] is the caller's backtrace recording, which every
   task runs under: recording is per domain, and a worker spawned
   before the caller turned it on would otherwise report a failure
   without the backtrace the caller's own domain records. *)
type job = {
  body : int -> unit;
  total : int;
  backtrace : bool;
  next : int Atomic.t;
  finished : int Atomic.t;
  mutable failure : (exn * Printexc.raw_backtrace) option;
      (* guarded by the pool mutex *)
}

type t = {
  size : int; (* worker domains + the calling domain *)
  mutex : Mutex.t;
  work : Condition.t; (* new job posted, or shutdown *)
  idle : Condition.t; (* some job finished its last task *)
  mutable generation : int;
  mutable job : job option;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

(* Whether this domain is running a task of the pool's job.  A [run]
   called from inside a task runs its body inline: a job posted there
   would take the pool's job slot from the task's own job and clear it
   on its join while that job still runs. *)
let in_task = Domain.DLS.new_key (fun () -> ref false)

(* Claim and run indices until the job is drained.  Exceptions are
   recorded (first wins, with its backtrace) but never abort the join:
   [finished] is incremented regardless, so the caller cannot deadlock
   and the worker domains survive to serve the next job. *)
let execute t (j : job) =
  let inside = Domain.DLS.get in_task in
  if Printexc.backtrace_status () <> j.backtrace then
    Printexc.record_backtrace j.backtrace;
  let rec grab () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.total then begin
      inside := true;
      (try j.body i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         if j.failure = None then j.failure <- Some (e, bt);
         Mutex.unlock t.mutex);
      inside := false;
      let f = 1 + Atomic.fetch_and_add j.finished 1 in
      if f = j.total then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.idle;
        Mutex.unlock t.mutex
      end;
      grab ()
    end
  in
  grab ()

let rec worker_loop t last_gen =
  Mutex.lock t.mutex;
  while (not t.stopped) && t.generation = last_gen do
    Condition.wait t.work t.mutex
  done;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    let job = t.job in
    Mutex.unlock t.mutex;
    (match job with Some j -> execute t j | None -> ());
    worker_loop t gen
  end

let create size =
  let t =
    {
      size;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      generation = 0;
      job = None;
      stopped = false;
      workers = [];
    }
  in
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers

(* ---- the process-wide pool ---- *)

let jobs_override : int option ref = ref None
let pool : t option ref = ref None
let pool_mutex = Mutex.create ()

(* Without an explicit request the width is clamped to the hardware's
   recommended domain count: oversubscribing domains on a small host
   makes every parallel stage slower, not faster. *)
let default_jobs () =
  Option.value !jobs_override ~default:(Domain.recommended_domain_count ())

(* Install [request] as the override ([None]: none) and retire a pool
   of another width; the next [get] re-creates it. *)
let set_override request =
  Option.iter shutdown
    (Mutex.protect pool_mutex (fun () ->
         jobs_override := request;
         match !pool with
         | Some p when p.size <> default_jobs () ->
           pool := None;
           Some p
         | _ -> None))

let set_jobs n = set_override (Some (max 1 n))

let with_jobs n f =
  let prev = Mutex.protect pool_mutex (fun () -> !jobs_override) in
  set_jobs n;
  Fun.protect ~finally:(fun () -> set_override prev) f

(* The pool, created on first use at the current width. *)
let get () =
  Mutex.protect pool_mutex (fun () ->
      match !pool with
      | Some p -> p
      | None ->
        let p = create (default_jobs ()) in
        pool := Some p;
        p)

(* The process never exits with live domains. *)
let () =
  at_exit (fun () ->
      Option.iter shutdown
        (Mutex.protect pool_mutex (fun () ->
             let p = !pool in
             pool := None;
             p)))

let has_pending_job () =
  match Mutex.protect pool_mutex (fun () -> !pool) with
  | None -> false
  | Some t ->
    Mutex.protect t.mutex (fun () ->
        match t.job with Some _ -> true | None -> false)

(* Every fork-join job is counted in the metrics registry (both the
   sequential fast path and the pool path), so the bench JSON can
   report how much work went through the pool. *)
let jobs_counter = Obs.Metrics.counter "pool.jobs"
let tasks_counter = Obs.Metrics.counter "pool.tasks"

let run n body =
  if n > 0 then begin
    let t = get () in
    Obs.Metrics.incr jobs_counter;
    Obs.Metrics.incr ~by:n tasks_counter;
    if t.size = 1 || n = 1 || !(Domain.DLS.get in_task) then
      (* sequential fast path, also taken by a [run] nested in a task:
         no handoff, ascending order; the first exception stops the
         loop and propagates as it was raised *)
      for i = 0 to n - 1 do
        body i
      done
    else begin
      Obs.span ~name:"pool.job" ~attrs:[ ("tasks", string_of_int n) ]
        (fun () ->
          let j =
            {
              body;
              total = n;
              backtrace = Printexc.backtrace_status ();
              next = Atomic.make 0;
              finished = Atomic.make 0;
              failure = None;
            }
          in
          Mutex.lock t.mutex;
          t.job <- Some j;
          t.generation <- t.generation + 1;
          Condition.broadcast t.work;
          Mutex.unlock t.mutex;
          execute t j;
          Mutex.lock t.mutex;
          while Atomic.get j.finished < n do
            Condition.wait t.idle t.mutex
          done;
          let fail = j.failure in
          (* Drop the drained job: its [body] closure captures whatever
             the caller fed it (arrays, workload state), which must not
             stay live until the next [run].  A stale worker waking up
             later sees a changed generation with [job = None] and goes
             back to sleep. *)
          t.job <- None;
          Mutex.unlock t.mutex;
          match fail with
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
    end
  end

let parallel_map_list f l =
  let a = Array.of_list l in
  let out = Array.make (Array.length a) None in
  run (Array.length a) (fun i -> out.(i) <- Some (f a.(i)));
  List.map Option.get (Array.to_list out)
