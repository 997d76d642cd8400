(** The fault boundary around a supervised task.

    [run] executes a task under the full supervision contract: an
    optional wall-clock deadline, immediate bounded retry of transient
    failures, classification of the final failure into the
    {!Fault.kind} taxonomy — and it never raises: the caller always
    gets an {!outcome} and decides how to degrade. *)

type status =
  | Completed  (** first attempt succeeded *)
  | Recovered of int  (** succeeded after this many retries *)
  | Failed of Fault.t  (** permanently failed, classified *)

type 'a outcome = {
  label : string;
  attempts : int;  (** attempts actually made (>= 1) *)
  value : 'a option;  (** [Some] iff the task succeeded *)
  status : status;
}

val run :
  ?timeout:float ->
  label:string ->
  (unit -> 'a) ->
  'a outcome
(** [run ~label f] supervises [f].  With [?timeout] the body executes
    on a spawned domain against a wall-clock deadline; a task that
    misses it fails with kind [Timeout] (never retried — its orphaned
    domain may still be running, and fuel-bounding guarantees the
    orphan eventually terminates).  A {!Fault.Transient} failure is
    retried at once, up to 3 attempts in all; the task is
    deterministic, so waiting first would not change the answer.
    {!Obs.Metrics} counts retries ([robust.retries]), timeouts
    ([robust.timeouts]), fuel exhaustion ([robust.fuel_exhausted]) and
    permanent failures ([robust.task_failures]). *)
