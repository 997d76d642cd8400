(** Peephole optimisation over symbolic assembly.

    Conservative, liveness-checked rewrites within straight-line runs
    (labels and control transfers end a run):

    - immediate fusion: [li $tK, n; op $tJ, $tJ, $tK] becomes
      [opi $tJ, $tJ, n] when [$tK] is provably dead afterwards —
      producing the immediate-form instructions (including the
      compare-to-constant idioms) a real assembler would emit;
    - identity elimination: [move r, r], additions of 0,
      multiplications by 1;
    - self-branch simplification: [beq r, r, L] becomes [j L];
      [bne r, r, L] is dropped.

    Temporaries can outlive a straight-line run (the boolean
    materialisation pattern), so deadness is only assumed when the
    register is redefined before any label or control transfer. *)

val optimize : Mips.Asm.item list -> Mips.Asm.item list
(** All rewrites, repeated until a pass changes nothing. *)
