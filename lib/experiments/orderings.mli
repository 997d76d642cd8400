(** Drivers for the heuristic-ordering study (Section 5): Graph 1,
    Graphs 2-3, and Table 4. *)

val graph1 : Format.formatter -> unit
(** Average non-loop miss rate of all 5040 orderings (matrix300
    excluded, as in the paper), printed as a downsampled sorted series
    plus min / median / max. *)

val quick_max_trials : int
(** 20,000: the trial cap of the subset experiment in a [--quick]
    run. *)

val subset_result : ?max_trials:int -> unit -> Predict.Subset.result
(** The subset walk over {!miss_matrix_cached}, memoised in memory
    and in the store, keyed by each benchmark's program digest and
    primary dataset, [k] and [max_trials]; every call opens a
    [stage.subset] span. *)

val graph2_3_table4 : ?max_trials:int -> Format.formatter -> unit
(** The C(22,11) subset experiment.  Prints Graph 2 (cumulative share
    of trials won by the most frequent orders), Graph 3 (overall
    average miss of those orders), and Table 4 (the ten most common
    winning orders).  [max_trials] caps the enumeration for quick
    runs; the default runs all 705,432 trials. *)

val miss_matrix_cached : unit -> float array array * Bench_run.t list
(** The (benchmark x 5040 orders) miss matrix over all benchmarks
    except matrix300, memoised for reuse across drivers. *)
