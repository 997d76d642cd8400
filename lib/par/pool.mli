(** The process-wide [Domain] worker pool, with deterministic
    fork-join combinators.

    There is one pool per process, created on first use.  It owns
    [jobs - 1] worker domains, which idle on a condition variable
    between jobs; the calling domain is the remaining worker, so at
    width 1 every job runs sequentially and no domain is ever spawned.
    The width is, in order of precedence: the last {!set_jobs} call
    (the [-j] flag), the [BALLARUS_JOBS] environment variable, or —
    absent any explicit request — [Domain.recommended_domain_count ()],
    because oversubscribing domains makes every stage slower.  An
    [at_exit] hook shuts the pool down so the process never exits with
    live domains.

    Tasks are indices [0 .. n-1] handed out through an atomic counter;
    every combinator stores each task's result in a slot owned by that
    task and merges slots in ascending index order, so results are
    independent of how tasks were scheduled across domains.

    The pool is built only from the stdlib ([Domain], [Atomic],
    [Mutex], [Condition]) — no external dependency. *)

val run : int -> (int -> unit) -> unit
(** [run n body] executes [body i] exactly once for every
    [0 <= i < n], distributing indices over the pool's domains.  The
    caller participates and returns once all [n] tasks have finished.
    If any task raises, the join re-raises that task's own exception
    in the caller, with the backtrace captured where it was raised, on
    whichever domain ran it; the first failure (by completion order)
    wins.  On the pool every task still runs after a failure, and the
    worker domains survive to serve the next job; the sequential fast
    path (width 1 or [n = 1]) stops at the first exception.  Every
    task runs under the caller's backtrace recording
    ([Printexc.backtrace_status]), whichever domain runs it.

    A [run] called from inside a task takes the sequential fast path
    on the calling domain: the task's own job stays the pool's one
    in-flight job, so a stage that fans out can be called from a task
    that is itself fanned out. *)

val parallel_map_list : ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], with elements processed across the pool. *)

val reduce : n:int -> chunk:int ->
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

val default_jobs : unit -> int
(** The pool's width right now: the explicit request if any, else
    [Domain.recommended_domain_count ()].  Test seam: [perf-smoke] and
    [test_par] read the width. *)

val set_jobs : int -> unit
(** Override the pool width ([-j N]), clamped to at least 1.  A pool
    that already exists at a different width is shut down and lazily
    re-created.  Must not be called from inside a parallel section. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f] with the pool width overridden to [n],
    then restores the previous override — or none, so that
    {!default_jobs} follows [BALLARUS_JOBS] or the recommended count
    again — however [f] ends.  Same restriction as {!set_jobs}. *)

val has_pending_job : unit -> bool
(** Whether the pool currently holds a job reference.  Between runs
    this must be [false]: a drained job is dropped at join time so its
    [body] closure (and everything it captures) does not stay live
    until the next [run].  Test seam: [test_par] checks it. *)
