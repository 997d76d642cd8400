(** Natural-loop analysis (Section 3 of the paper).

    A {e backedge} is an edge [x -> y] where [y] dominates [x].  Each
    target of one or more backedges is a {e loop head}.  The natural
    loop of head [y] is
    [{y} ∪ { w | ∃ backedge x -> y and a y-free path from w to x }].
    An edge [v -> w] is an {e exit edge} if some natural loop contains
    [v] but not [w].  A {e preheader} is a block that passes control
    unconditionally to a loop head it dominates.

    The paper identifies backedges by depth-first search; on the
    reducible CFGs our compiler produces, DFS retreating edges and
    dominator backedges coincide, and the dominator definition makes
    the natural-loop sets independent of DFS order. *)

type t

val of_graph : Graph.t -> Dom.t -> t

val is_backedge : t -> src:int -> dst:int -> bool
(** Whether the CFG edge [src -> dst] is a loop backedge. *)

val is_exit_edge : t -> src:int -> dst:int -> bool

val is_loop_head : t -> int -> bool

val is_preheader : t -> int -> bool
(** Block with a single unconditional successor that is a loop head it
    dominates. *)

val loop_heads : t -> int list
(** All loop heads, ascending.  Test seam: [test_cfg] checks natural
    loops against a brute-force reference. *)

val in_loop : t -> head:int -> int -> bool
(** Membership of a block in the natural loop of [head]. *)

val loop_depth : t -> int -> int
(** Number of natural loops containing the block. *)

val loops_containing : t -> int -> int list
(** Heads of all natural loops containing the block. *)

val loop_body : t -> head:int -> int list
(** Blocks of the natural loop of [head], ascending.  Test seam, as
    {!loop_heads}. *)
