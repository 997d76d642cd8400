(** Deterministic, seeded fault injection.

    When armed (via [BALLARUS_CHAOS=<seed>], {!set_seed}, or
    {!force}), the hooks below inject faults — corrupt cache entries,
    failed writes, exceptions inside pool tasks, small delays — at
    points decided purely by [(seed, site, consultation index)], so
    the same seed reproduces the same fault schedule.  Disarmed hooks
    are near-free, so they stay compiled into the production paths. *)

type site = Cache_read | Cache_write | Task | Delay

exception Chaos of string
(** The exception raised by {!raise_in_task}; classified Transient. *)

val set_seed : int option -> unit

val force : site -> int -> unit
(** [force site n] arms the next [n] consultations of [site] to fire
    unconditionally — guarantees coverage regardless of seed luck. *)

val fired : site -> int
(** How many faults this site has injected since the last {!reset}. *)

val reset : unit -> unit
(** Clear all consultation counters, fired counts, and forced arms
    (the seed is kept; use {!set_seed} to clear it). *)

val corrupt_entry : string -> bool
(** Maybe corrupt the cache entry file at this path in place; returns
    whether it fired.  Never fires on a missing file, so injected
    corruptions correspond one-to-one with detectable ones. *)

val fail_write : unit -> unit
(** Maybe raise [Sys_error] as if a cache write failed mid-flight. *)

val raise_in_task : label:string -> unit
(** Maybe raise {!Chaos} inside a pool task. *)

val delay : label:string -> unit
(** Maybe sleep ~2ms, perturbing scheduling without changing results. *)

val summary : unit -> (string * int) list
(** [(site name, fired count)] for every site. *)
