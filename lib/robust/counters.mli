(** Process-wide robustness counters.

    The supervision layer counts every recovery action it takes —
    retries performed ([robust.retries]), timeouts hit
    ([robust.timeouts]), fuel exhaustions ([robust.fuel_exhausted]),
    tasks that failed permanently ([robust.task_failures]) — so a run
    can report how degraded it was.  The counters live in
    {!Obs.Metrics} (atomic, safe to bump from any domain); read them
    there.  Cache-recovery counters live with the store, under
    [cache.*]. *)

val incr_retries : unit -> unit
val incr_timeouts : unit -> unit
val incr_fuel_exhausted : unit -> unit
val incr_task_failures : unit -> unit
