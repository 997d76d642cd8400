(** Flow-consistency checking of edge profiles (Kirchhoff's law on the
    CFG).

    An edge profile is {e flow-consistent} when every block's
    execution count equals both the sum of its incoming edge counts
    and the sum of its outgoing edge counts, the procedure entry is
    balanced against its call sites, and every invocation that enters
    a procedure also leaves it.  A profiler bug — dropped events,
    double counting, attributing a branch to the wrong pc — shows up
    as a violation somewhere, which makes this the fuzzing oracle for
    {!Sim.Profile}.

    Only conditional-branch edge counts are observed directly (that is
    all QPT-style edge profiling records); the checker propagates them
    through the CFG to a fixpoint, deriving unconditional-edge and
    block counts where they are determined, and reports every
    contradiction it finds.  Switch edges are under-determined
    individually, but their sum is still checked against the source
    block. *)

val check_program :
  Mips.Program.t -> taken:int array array -> fall:int array array ->
  string list
(** Check a whole program's edge profile, as produced by
    [Sim.Profile.run].  Propagates every procedure's per-pc counts to a
    fixpoint and closes the interprocedural balance: a procedure's
    entry count must equal the summed execution counts of its call
    sites ([Jal], the only call), plus one for the program entry; a
    procedure without [Halt] must exit as many times as it is entered.
    The program entry is exempted from the exit balance (the machine
    stops at its final return).  Returns all violations found, empty
    when the profile is flow-consistent. *)
