(** Miss-rate and coverage metrics over sets of branches.

    Throughout the paper a predictor's quality on a set of branches is
    the percentage of their {e dynamic} executions it mispredicts; the
    perfect static predictor's rate on the same set is reported
    alongside (the "C/D" notation). *)

val miss_rate : (Database.branch -> bool) -> Database.branch list -> float
(** Dynamic miss rate of a static predictor over the branches, in
    [0, 1].  [nan] when the branches never execute. *)

val perfect_rate : Database.branch list -> float
(** Miss rate of the perfect static predictor. *)

val total_exec : Database.branch list -> int

val ratio : int -> int -> float
(** [ratio num den] as a float; [nan] when [den = 0].  Every rate
    here is one. *)

val covered :
  (Database.branch -> bool option) -> Database.branch list ->
  Database.branch list
(** Branches to which a partial predictor applies. *)

val coverage : (Database.branch -> bool option) -> Database.branch list -> float
(** Fraction of the dynamic executions of [branches] accounted for by
    branches the partial predictor covers. *)

val miss_rate_covered :
  (Database.branch -> bool option) -> Database.branch list -> float
(** Miss rate of a partial predictor over the branches it covers. *)

val big_branches :
  threshold:float -> Database.branch list -> Database.branch list * float
(** Branches individually responsible for more than [threshold]
    (e.g. 0.05) of the sets's dynamic executions, and the fraction of
    executions they jointly account for — the "Big" column of
    Table 2. *)
