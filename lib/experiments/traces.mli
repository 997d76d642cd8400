(** Trace-based IPBC experiments (Section 6): Graphs 4-11 and the
    analytic model of Graph 12. *)

val predictors_for :
  Bench_run.t -> (string * Sim.Trace_run.prediction_bits) list
(** The three predictors of the paper's trace study: Perfect (from the
    primary dataset's own profile), Heuristic (loop predictor + the
    prioritised heuristics + random default), and Loop+Rand. *)

val graph_for : Format.formatter -> string -> unit
(** Cumulative sequence-length distributions for one traced workload:
    miss rate, IPBC average, dividing length, and the cumulative
    distribution by instructions for each predictor.  [graph_for
    "spice2g6"] additionally prints the by-breaks distribution
    (Graph 5). *)

val warm : unit -> unit
(** Simulate (and cache) the trace runs of every traced workload, one
    workload per task on the {!Par.Pool}.  The
    distributions are derived from them by {!graph_for}. *)

val graph12 : Format.formatter -> unit
(** The model y = 1 - (1-m)^s for m in 0.025 .. 0.30. *)
