(** Structural shrinking of failing generated programs.

    Candidates are produced smallest-step first — statement removal,
    branch/loop-body hoisting (with [break] / [continue] stripped when
    they would escape their loop), trip-count reduction to 1, dead
    helper removal, and expression collapse to [0] — and
    {!minimize} greedily walks them to a fixpoint: the returned
    program still fails but no single shrink step of it does. *)

val candidates : Gen.program -> Gen.program Seq.t
(** All one-step shrinks of a program, lazily.  Test seam: [test_fuzz]
    checks each candidate. *)

val minimize : failing:(Gen.program -> bool) -> Gen.program -> Gen.program
(** [minimize ~failing p] with [failing p = true] returns a local
    minimum of [p] under {!candidates} that still satisfies
    [failing]. *)
