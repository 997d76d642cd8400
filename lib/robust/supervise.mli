(** The fault boundary around a supervised task.

    [run] executes a task and classifies a failure into the
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

val run : label:string -> (unit -> 'a) -> 'a outcome
(** [run ~label f] supervises [f].  {!Obs.Metrics} counts fuel
    exhaustion ([robust.fuel_exhausted]) and failures
    ([robust.task_failures]). *)
