(** Dominator and postdominator analysis.

    A vertex [v] dominates [w] if every path from the procedure entry
    to [w] includes [v].  A vertex [w] postdominates [v] if every path
    from [v] to any exit includes [w] (Section 2 of the paper).  Both
    relations are computed with the Cooper-Harvey-Kennedy iterative
    algorithm over a reverse postorder. *)

type t
(** An immediate-dominator tree over block ids. *)

val of_graph : Graph.t -> t
(** Dominators of the CFG, rooted at the entry block. *)

val post_of_graph : Graph.t -> t
(** Postdominators: dominators of the reversed CFG rooted at a virtual
    exit connected from every block without successors.  Blocks that
    cannot reach any exit (e.g. bodies of infinite loops) postdominate
    only themselves and are postdominated by nothing. *)

val idom : t -> int -> int option
(** Immediate dominator, [None] for the root, unreachable blocks, and
    (for postdominators) blocks whose only "parent" is the virtual
    exit.  Test seam: [test_cfg] checks the trees of Figure 1. *)

val dominates : t -> int -> int -> bool
(** [dominates t v w] — reflexive.  For the postdominator tree this
    reads "[v] postdominates [w]".  Unreachable blocks dominate only
    themselves. *)
