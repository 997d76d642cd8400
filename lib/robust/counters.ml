(* The supervision counters are plain named entries in the process-wide
   metrics registry (Obs.Metrics), so `bpredict stats` and the bench
   read them through the same interface as every other metric. *)

let retries = Obs.Metrics.counter "robust.retries"
let timeouts = Obs.Metrics.counter "robust.timeouts"
let fuel_exhausted = Obs.Metrics.counter "robust.fuel_exhausted"
let task_failures = Obs.Metrics.counter "robust.task_failures"

let incr_retries () = Obs.Metrics.incr retries
let incr_timeouts () = Obs.Metrics.incr timeouts
let incr_fuel_exhausted () = Obs.Metrics.incr fuel_exhausted
let incr_task_failures () = Obs.Metrics.incr task_failures
