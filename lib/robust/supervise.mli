(** The fault boundary around a supervised task.

    [run] executes a task under the supervision contract: an optional
    wall-clock deadline and classification of a failure into the
    {!Fault.kind} taxonomy — and it never raises: the caller always
    gets an {!outcome} and decides how to carry on.  Every supervised
    task is deterministic, so a failure is final; nothing is retried. *)

type status =
  | Completed  (** the task returned a value *)
  | Failed of Fault.t  (** the task failed, classified *)

type 'a outcome = {
  label : string;
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
    misses it fails with kind [Timeout] (its orphaned domain may still
    be running, and fuel-bounding guarantees the orphan eventually
    terminates).  {!Obs.Metrics} counts timeouts ([robust.timeouts]),
    fuel exhaustion ([robust.fuel_exhausted]) and failures
    ([robust.task_failures]). *)
