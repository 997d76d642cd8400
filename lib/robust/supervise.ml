type status = Completed | Failed of Fault.t

type 'a outcome = { label : string; value : 'a option; status : status }

let fuel_exhausted = Obs.Metrics.counter "robust.fuel_exhausted"
let task_failures = Obs.Metrics.counter "robust.task_failures"

(* Every supervised task is deterministic, so a failed task would fail
   the same way again: it is classified and reported, never retried.
   A failure inside a pool task arrives as the task's own exception,
   with the backtrace of the domain that raised it. *)
let run ~label f =
  match f () with
  | v -> { label; value = Some v; status = Completed }
  | exception e ->
    let backtrace =
      match Printexc.get_backtrace () with "" -> None | bt -> Some bt
    in
    Obs.Metrics.incr task_failures;
    (match Fault.kind_of_exn e with
    | Fuel_exhausted -> Obs.Metrics.incr fuel_exhausted
    | Hard -> ());
    let fault = Fault.of_exn ?backtrace ~task:label e in
    { label; value = None; status = Failed fault }
