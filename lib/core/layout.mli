(** Prediction-guided code layout.

    The paper's motivation: architectures like the DEC Alpha predict
    forward conditional branches not taken and backward ones taken,
    "relying on a compiler to arrange code to conform to these
    expectations".  This pass is that compiler arrangement: it
    re-linearises each procedure so that every conditional branch's
    {e predicted} successor is the fall-through where possible,
    inverting branch conditions as needed, and chains blocks into
    traces along predicted edges.

    The transformation preserves semantics exactly (checksums are
    bit-identical); only the number of taken control transfers
    changes.  {!taken_after} derives the effect from an edge profile;
    {!taken_transfers} measures it by simulation. *)

val invert : int Mips.Insn.t -> int Mips.Insn.t
(** Invert the condition of a conditional branch (target unchanged):
    [beq <-> bne], [bltz <-> bgez], [blez <-> bgtz], [bc1t <-> bc1f].
    Raises [Invalid_argument] on non-branches.  Test seam: [test_layout]
    checks it is an involution. *)

val reorder_proc :
  predict:(block:int -> bool) -> Mips.Program.proc -> Mips.Program.proc
(** Lay out one procedure along predicted traces.  [predict ~block]
    gives the predicted direction of the conditional branch
    terminating [block] (in the {e original} CFG's block ids); it is
    consulted only for branch-terminated blocks.  Test seam:
    [test_layout] lays out hand-built procedures. *)

val predictor :
  Database.t -> (Database.branch -> bool) -> proc:int -> block:int -> bool
(** [predictor db dir] is the [~predict] argument of {!apply} and
    {!taken_after} that gives each branch of [db] the direction [dir]
    chooses for it, looked up by (procedure, block); a block with no
    branch in [db] is predicted not taken. *)

val apply :
  Mips.Program.t ->
  predict:(proc:int -> block:int -> bool) ->
  Mips.Program.t
(** Lay out every procedure of a program. *)

val taken_after :
  Mips.Program.t ->
  predict:(proc:int -> block:int -> bool) ->
  Sim.Profile.t ->
  int
(** [taken_after prog ~predict profile] is the number of taken
    conditional branches that [apply prog ~predict] would execute on
    the run [profile] was collected from, without running it.  Layout
    keeps or inverts each conditional branch, so a kept branch is taken
    as often as before and an inverted one as often as the original
    fell through.  Branch executions are unchanged by layout
    ({!Sim.Profile.branch_execs}). *)

val taken_transfers :
  Mips.Program.t -> Sim.Dataset.t -> int * int * Sim.Machine.stats
(** Profile the program ({!Sim.Profile.run}) and count [(taken
    conditional branches, conditional branch executions, stats)].
    Combined with {!apply} this quantifies how much layout helps a
    fall-through-predicting front end. *)
