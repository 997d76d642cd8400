(** Extended and {e unsuccessful} heuristics (Section 4.4).

    The paper reports trying "many heuristics that were unsuccessful
    ... based on the number of instructions between a branch and its
    target, and the domination and postdomination relations between a
    branch and its successors", and suggests generalising the
    successful ones to look beyond adjacent blocks.  This module
    implements representatives of both so the negative result can be
    reproduced and the generalisation measured (see the
    [ablation-ext] experiment), which reads the verdicts
    {!Database.make} bakes into each branch's [ext] array. *)

type t =
  | Distance    (** predict the successor closer in the code: short
                    displacement ≈ same region ≈ common path *)
  | Postdom     (** predict a successor that postdominates the branch:
                    it executes eventually anyway *)
  | Dominated   (** predict a successor dominated by the branch: code
                    reachable only through this branch is presumed the
                    purpose of the test *)
  | Guard_deep  (** the Guard heuristic, also following one
                    unconditional hop into each successor — the
                    Section 4.4 generalisation *)

val all : t list
val name : t -> string

val apply : t -> Cfg.Analysis.t -> block:int -> taken:int -> fall:int -> bool option
(** Same contract as {!Heuristic.apply}. *)
