(** Trace-based IPBC experiments (Section 6): Graphs 4-11 and the
    analytic model of Graph 12. *)

val predictors_for :
  Bench_run.t -> (string * Sim.Trace_run.prediction_bits) list
(** {!Bench_run.predictors} of the workload's database. *)

val graph_for : Format.formatter -> string -> unit
(** Cumulative sequence-length distributions for one traced workload:
    miss rate, IPBC average, dividing length, and the cumulative
    distribution by instructions for each predictor.  [graph_for
    "spice2g6"] additionally prints the by-breaks distribution
    (Graph 5). *)

val warm : unit -> unit
(** Read the trace results of every traced workload
    ({!Bench_run.traces_for}), one workload per task on the
    {!Par.Pool}; after {!Bench_run.load_all} they are all in memory.
    The distributions are derived from them by {!graph_for}. *)

val graph12 : Format.formatter -> unit
(** The model y = 1 - (1-m)^s for m in 0.025 .. 0.30. *)
