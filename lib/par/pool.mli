(** A fixed-size [Domain] worker pool with deterministic fork-join
    combinators.

    The pool owns [jobs - 1] worker domains; the calling domain is the
    remaining worker, so [jobs = 1] degenerates to plain sequential
    execution with no domain ever spawned.  Tasks are indices [0 .. n-1]
    handed out through an atomic counter; every combinator stores each
    task's result in a slot owned by that task and merges slots in
    ascending index order, so results are independent of how tasks were
    scheduled across domains.

    The pool is built only from the stdlib ([Domain], [Atomic],
    [Mutex], [Condition]) — no external dependency. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains.  [jobs]
    is clamped to at least 1.  Workers idle on a condition variable
    between jobs.  Test seam: the product uses {!get}; tests build
    pools of chosen widths. *)

val jobs : t -> int
(** Parallel width of the pool (worker domains + the caller).  Test
    seam, as {!create}. *)

val has_pending_job : t -> bool
(** Whether the pool currently holds a job reference.  Between runs
    this must be [false]: a drained job is dropped at join time so its
    [body] closure (and everything it captures) does not stay live
    until the next [run].  Test seam: [test_par] checks it. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  The pool must be idle.
    Idempotent.  Test seam, as {!create} ({!get}'s pool is shut down
    at exit). *)

val run : t -> int -> (int -> unit) -> unit
(** [run t n body] executes [body i] exactly once for every
    [0 <= i < n], distributing indices over the pool's domains.  The
    caller participates and returns once all [n] tasks have finished.
    If any task raises, the join re-raises that task's own exception
    in the caller, with the backtrace captured where it was raised, on
    whichever domain ran it; the first failure (by completion order)
    wins.  On the pool every task still runs after a failure, and the
    worker domains survive to serve the next job; the sequential fast
    path ([jobs = 1] or [n = 1]) stops at the first exception.  Every
    task runs under the caller's backtrace recording
    ([Printexc.backtrace_status]), whichever domain runs it.

    A [run] called from inside a task of any pool's job takes the
    sequential fast path on the calling domain: the task's own job
    stays the pool's one in-flight job, so a stage that fans out can
    be called from a task that is itself fanned out. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], with elements processed across the pool.  The
    result preserves input order. *)

val parallel_map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], with elements processed across the pool. *)

val reduce : t -> n:int -> chunk:int ->
  map:(int -> int -> 'a) -> merge:('a -> 'a -> 'a) -> init:'a -> unit -> 'a
(** Chunked reduce: the index range [0, n) is cut into fixed chunks of
    size [chunk]; [map lo hi] folds one chunk [lo, hi) to a partial
    value, and partials are combined as
    [merge (... (merge init p0) ...) plast] in ascending chunk order.
    Because the chunk decomposition depends only on [n] and [chunk]
    (never on the pool width), the result is identical for any number
    of domains even when [merge] is not associative-commutative in
    floating point.

    Adjacent chunks are grouped so each domain runs ~4 scheduled
    tasks.  The grouping depends on the pool width but never touches
    the chunk decomposition, so it never changes the result. *)

(** {1 The process-wide default pool}

    Hot paths in the rest of the repository share one global pool.
    Its width is, in order of precedence: the last [set_jobs] call
    (the [-j] flag), the [BALLARUS_JOBS] environment variable, or —
    absent any explicit request — a clamp to
    [Domain.recommended_domain_count ()], because oversubscribing
    domains makes every stage slower. *)

val default_jobs : unit -> int
(** The width the default pool would have right now: the explicit
    request if any, else [Domain.recommended_domain_count ()].  Test
    seam: [perf-smoke] and [test_par] read the width. *)

val set_jobs : int -> unit
(** Override the default pool width ([-j N]).  If the default pool
    already exists at a different width it is shut down and lazily
    re-created.  Must not be called from inside a parallel section. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f] with the default pool width overridden to
    [n], then restores the previous override — or none, so that
    {!default_jobs} follows [BALLARUS_JOBS] or the recommended count
    again — however [f] ends.  Same restriction as {!set_jobs}. *)

val get : unit -> t
(** The process-wide pool, created on first use.  An [at_exit] hook
    shuts it down so the process never exits with live domains. *)
