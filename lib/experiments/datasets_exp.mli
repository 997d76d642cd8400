(** Cross-dataset stability (Section 7, Graph 13). *)

val graph13 : Format.formatter -> unit
(** For every workload and dataset: all-branch miss rate of the
    heuristic predictor (whose predictions are fixed across datasets)
    and of the per-dataset perfect static predictor. *)

val warm : unit -> unit
(** Build (and cache) the branch database of every (workload, dataset)
    pair {!graph13} prints, one pair per task on the {!Par.Pool}. *)
