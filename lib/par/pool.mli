(** The process-wide [Domain] worker pool, with one deterministic
    fork-join combinator.

    There is one pool per process, created on first use.  It owns
    [jobs - 1] worker domains, which idle on a condition variable
    between jobs; the calling domain is the remaining worker, so at
    width 1 every job runs sequentially and no domain is ever spawned.
    The width is the last {!set_jobs} or {!with_jobs} override (the
    [-j] flag), or else [Domain.recommended_domain_count ()], because
    oversubscribing domains makes every stage slower.  An [at_exit]
    hook shuts the pool down so the process never exits with live
    domains.

    Elements are handed out by index through an atomic counter; each
    element's result goes to a slot of its own and the results come
    back in list order, so they are independent of how the elements
    were scheduled across domains.

    The pool is built only from the stdlib ([Domain], [Atomic],
    [Mutex], [Condition]) — no external dependency. *)

val parallel_map_list : ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], with elements processed across the pool; the
    caller's domain processes elements too and returns once all have
    finished.  If any [f x] raises, the call re-raises that exception
    in the caller, with the backtrace captured where it was raised, on
    whichever domain ran it; the first failure (by completion order)
    wins.  On the pool every element is still processed after a
    failure, and the worker domains survive to serve the next call;
    the sequential path (width 1 or a one-element list) stops at the
    first exception.  Every [f x] runs under the caller's backtrace
    recording ([Printexc.backtrace_status]), whichever domain runs it.

    A [parallel_map_list] called from inside [f] takes the sequential
    path on the calling domain: the outer call stays the pool's one
    in-flight job, so a stage that fans out can be called from an
    element that is itself fanned out. *)

val default_jobs : unit -> int
(** The pool's width right now: the override if any, else
    [Domain.recommended_domain_count ()].  [Predict.Subset] sizes its
    task groups by it; [perf-smoke] and [test_par] read it too. *)

val set_jobs : int -> unit
(** Override the pool width ([-j N]), clamped to at least 1.  A pool
    that already exists at a different width is shut down and lazily
    re-created.  Must not be called from inside a parallel section. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f] with the pool width overridden to [n],
    then restores the previous override — or none, so that
    {!default_jobs} follows the recommended count again — however [f]
    ends.  Same restriction as {!set_jobs}. *)

val has_pending_job : unit -> bool
(** Whether the pool currently holds a job reference.  Between calls
    this must be [false]: a drained job is dropped at join time so its
    closure (and everything it captures) does not stay live until the
    next call.  Test seam: [test_par] checks it. *)
