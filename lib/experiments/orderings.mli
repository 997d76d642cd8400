(** Drivers for the heuristic-ordering study (Section 5): Graph 1,
    Graphs 2-3, and Table 4. *)

val graph1 : Format.formatter -> unit
(** Average non-loop miss rate of all 5040 orderings (matrix300
    excluded, as in the paper), printed as a downsampled sorted series
    plus min / median / max, from {!order_averages}. *)

val benchmarks : unit -> Bench_run.t list
(** The 22 benchmarks of the ordering study: {!Bench_run.load_all}
    without matrix300, in registry order. *)

val order_averages : unit -> float array
(** The 5040 per-order averages over the 22 benchmarks,
    {!Predict.Ordering.averages} of {!miss_matrix_cached}, memoised in
    memory and in the store (the persisted [order_averages] table,
    40 KB), keyed by each benchmark's source digest and primary
    dataset.  The matrix is built only when that entry misses, so a
    warm run never builds it.  Callers must not mutate the array. *)

val quick_max_trials : int
(** 20,000: the trial cap of the subset experiment in a [--quick]
    run. *)

val subset_result : ?max_trials:int -> unit -> Predict.Subset.result
(** The subset walk over {!miss_matrix_cached}, memoised in memory
    and in the store, keyed like {!order_averages} plus [k] and
    [max_trials]; the matrix is built only when that entry misses.
    Every call opens a [stage.subset] span. *)

val graph2_3_table4 : ?max_trials:int -> Format.formatter -> unit
(** The C(22,11) subset experiment.  Prints Graph 2 (cumulative share
    of trials won by the most frequent orders), Graph 3 (overall
    average miss of those orders), and Table 4 (the ten most common
    winning orders); the overall averages are {!order_averages}.
    [max_trials] caps the enumeration for quick runs; the default runs
    all 705,432 trials. *)

val miss_matrix_cached : unit -> float array array * Bench_run.t list
(** The (benchmark x 5040 orders) miss matrix over all benchmarks
    except matrix300, with their runs, memoised in memory only.  Only
    the compute closures of {!order_averages} and {!subset_result}
    build it in a suite run; a build records a [miss_matrix] span. *)
