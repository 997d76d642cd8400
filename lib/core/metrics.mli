(** Miss-rate and coverage metrics over sets of branches.

    Throughout the paper a predictor's quality on a set of branches is
    the percentage of their {e dynamic} executions it mispredicts; the
    perfect static predictor's rate on the same set is reported
    alongside (the "C/D" notation).  A heuristic that applies to some
    branches only is also rated by its coverage, the share of the
    executions it predicts.  All three rates are ratios of integer
    execution counts, and every one in the experiments is a projection
    of a {!tally}: one fold over the branches forms the C and the D of
    a cell, and its coverage, from the same integers. *)

type tally = {
  exec : int;         (** executions of all the branches *)
  cov_exec : int;     (** executions of the branches the predictor covers *)
  cov_miss : int;     (** its mispredictions on them *)
  cov_perfect : int;  (** the perfect static predictor's on them *)
}

val tally : (Database.branch -> bool option) -> Database.branch list -> tally
(** [tally partial branches] folds the branches once.  A branch is
    covered when [partial] gives it a direction, and is then charged
    the misses of that direction. *)

val ratio : int -> int -> float
(** [ratio num den] as a float; [nan] when [den = 0].  Every rate
    here is one. *)

val coverage : tally -> float
(** [ratio cov_exec exec]: the share of the executions covered. *)

val miss : tally -> float
(** [ratio cov_miss cov_exec]: the predictor's miss rate on the
    branches it covers (the C of C/D). *)

val perfect : tally -> float
(** [ratio cov_perfect cov_exec]: the perfect static predictor's miss
    rate on the same branches (the D of C/D). *)

val miss_rate : (Database.branch -> bool) -> Database.branch list -> float
(** Dynamic miss rate of a static predictor over the branches, in
    [0, 1]: {!miss} of its tally.  [nan] when the branches never
    execute. *)

val perfect_rate : Database.branch list -> float
(** Miss rate of the perfect static predictor: {!perfect} of a tally
    that covers every branch. *)

val total_exec : Database.branch list -> int

val big_branches :
  threshold:float -> Database.branch list -> Database.branch list * float
(** Branches individually responsible for more than [threshold]
    (e.g. 0.05) of the sets's dynamic executions, and the fraction of
    executions they jointly account for — the "Big" column of
    Table 2. *)
