(** Branch database: the static analysis of every conditional branch
    in a program joined with its dynamic edge profile.

    All of the paper's tables are computed from this structure.  Each
    branch records its loop/non-loop class, its execution counts along
    the taken and fall-through edges, the verdict of each heuristic
    (the paper's and the Section 4.4 ones), the loop predictor's
    choice, and a deterministic pseudo-random default.  All but the
    counts are read from the CFG analyses in {!make}, which keeps no
    analyses: the database is a program's one static record. *)

type branch = {
  proc : int;               (** procedure index *)
  block : int;              (** CFG block ending with the branch *)
  pc : int;                 (** instruction index of the branch *)
  taken_dst : int;          (** target-successor block *)
  fall_dst : int;           (** fall-through-successor block *)
  cls : Classify.cls;
  taken_count : int;
  fall_count : int;
  heur : bool option array; (** indexed by [Heuristic.to_int] *)
  ext : bool option array;  (** in {!Heuristic_ext.all}'s order *)
  loop_pred : bool;
  rand_pred : bool;
  backward : bool;          (** taken edge goes backward in the code *)
}

type t = {
  program : Mips.Program.t;
  branches : branch array;
}

val seed : int
(** The seed of every branch's baked Default coin ([rand_pred]). *)

val make :
  Mips.Program.t -> Cfg.Analysis.t array ->
  taken:int array array -> fall:int array array -> t
(** [make program analyses ~taken ~fall] builds the database.  The
    count arrays are indexed by procedure and instruction index, as
    produced by the simulator's edge profiler. *)

val with_counts : t -> taken:int array array -> fall:int array array -> t
(** [with_counts db ~taken ~fall] is [make db.program
    (Cfg.Analysis.of_program db.program) ~taken ~fall] without
    re-deriving anything: a branch's class, heuristic verdicts, loop
    prediction and Default coin depend on the program alone, so only
    the counts are read from the new arrays.  The result shares [db]'s
    program and its [heur] and [ext] arrays. *)

val exec : branch -> int
(** Dynamic executions of the branch. *)

val misses : branch -> bool -> int
(** Mispredictions if the branch is statically predicted in the given
    direction. *)

val perfect_misses : branch -> int
(** Mispredictions of the perfect static predictor: the count of the
    less-frequent direction. *)

val loop_branches : t -> branch list
val non_loop_branches : t -> branch list

val rand_bit : seed:int -> proc:int -> pc:int -> bool
(** The deterministic per-branch coin used by the Default predictor. *)
