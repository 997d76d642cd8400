(** Loop / non-loop branch classification and the loop predictor
    (Section 3 of the paper).

    A branch is a {e loop branch} if either of its outgoing edges is a
    loop backedge or an exit edge; otherwise it is a {e non-loop
    branch}.  The loop predictor chooses iterating over exiting: if an
    outgoing edge is a backedge it is predicted, otherwise the
    non-exit edge is predicted. *)

type cls = Loop_branch | Non_loop_branch

val pp_cls : Format.formatter -> cls -> unit

val classify : Cfg.Analysis.t -> block:int -> taken:int -> fall:int -> cls

val loop_predict : Cfg.Analysis.t -> block:int -> taken:int -> fall:int -> bool
(** Direction ([true] = taken) the loop predictor chooses for a loop
    branch.  When both edges are backedges the one entering the
    innermost (deepest) loop is predicted; when both are exit edges
    the edge retaining the most loops is predicted. *)

val is_backward : Cfg.Graph.t -> block:int -> taken:int -> bool
(** Whether the taken edge of the branch jumps to an address at or
    before the branch instruction — the naive "backward branch" notion
    the paper contrasts with natural-loop analysis. *)

