(** The combined heuristic predictor (Section 5).

    Heuristics are totally ordered; to predict a non-loop branch the
    combined predictor marches through them until one applies.  If
    none applies, the Default predictor makes a deterministic random
    prediction.  Loop branches always use the loop predictor. *)

type order = Heuristic.t list
(** A permutation of the seven heuristics. *)

val paper_order : order
(** Point, Call, Opcode, Return, Store, Loop, Guard — the prioritised
    ordering of the paper's Tables 5 and 6 and Section 6. *)

val validate : order -> unit
(** Raises [Invalid_argument] unless the list is a permutation of
    {!Heuristic.all}. *)

type source =
  | By of Heuristic.t  (** first applicable heuristic *)
  | Default            (** no heuristic applied: random *)

val predict_non_loop : ?seed:int -> order -> Database.branch -> bool * source
(** Prediction for a non-loop branch under the given ordering.  The
    Default fallback is always a deterministic function of a seed and
    the branch's address: with [?seed] absent it reads the coin baked
    into the database (under {!Database.seed}); an explicit
    [~seed] recomputes {!Database.rand_bit} under that seed instead,
    so alternative-seed experiments are reproducible without
    rebuilding the database. *)

val predict : ?seed:int -> order -> Database.branch -> bool
(** Full predictor: loop predictor on loop branches, ordered
    heuristics plus Default on non-loop branches.  [?seed] as in
    {!predict_non_loop}. *)

val loop_rand_predict : ?seed:int -> Database.branch -> bool
(** The Loop+Rand baseline: loop predictor on loop branches, random on
    non-loop branches.  [?seed] as in {!predict_non_loop}. *)

val perfect_predict : Database.branch -> bool
(** The perfect static predictor (dataset dependent): the more
    frequently executed direction, ties broken toward taken. *)
