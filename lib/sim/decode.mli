(** Pre-decoded programs (the classic fast-interpreter technique: cf.
    Ertl & Gregg; QPT's cheap rewritten executables played the same
    role for the paper).

    {!of_program} compiles each procedure body once into a flat
    representation the interpreter can dispatch on with a single
    jump-table match per step:

    - one dense opcode per instruction, with ALU reg/reg vs reg/imm
      forms, float-compare conditions, zero-test conditions, and
      branch-on-flag senses split into distinct opcodes (no nested
      matches at run time);
    - register names pre-converted to plain int indices;
    - [Jal] targets pre-resolved to procedure indices (no string
      lookup on calls);
    - branch/jump targets as absolute instruction slots;
    - jump tables and float immediates in per-procedure side tables;
    - a [Fall_off] sentinel one past the last instruction, so a body of
      [n] instructions decodes to [n + 1] slots and the interpreter
      needs no bounds test: straight-line fall-through, a branch,
      [J] or jump-table entry to slot [n], and a return to a trailing
      [Jal] all land on it;
    - [runs], the length of the straight-line run from each slot, so
      the interpreter checks fuel once per run instead of once per
      instruction;
    - superinstructions: the eight most frequent adjacent pairs inside
      a straight-line run (measured over the suite's profile runs) are
      fused into one op at the pair's first slot, so the interpreter
      dispatches once for both;
    - pure writes to [$zero] (every ALU op but Div/Rem, [Li], [Move])
      decode to [Nop], so the hot arms need no [x <> 0] test.

    Decoding is cheap (linear in the static code size) but hot loops
    decode each procedure exactly once: callers that run the same
    program repeatedly should decode up front and pass the result to
    {!Machine.run_decoded}, {!Profile.run}, or {!Trace_run.run}. *)

type op =
  | Add_rr | Sub_rr | Mul_rr | Div_rr | Rem_rr
  | And_rr | Or_rr | Xor_rr | Sll_rr | Sra_rr
  | Slt_rr | Sle_rr | Seq_rr | Sne_rr
  | Add_ri | Sub_ri | Mul_ri | Div_ri | Rem_ri
  | And_ri | Or_ri | Xor_ri | Sll_ri | Sra_ri
  | Slt_ri | Sle_ri | Seq_ri | Sne_ri
  | Li | Move | Lw | Sw
  | Fadd | Fsub | Fmul | Fdiv
  | Fneg | Fabs | Fmove | Fli
  | Ld | Sd | Itof | Ftoi
  | Fcmp_eq | Fcmp_lt | Fcmp_le
  | Beq | Bne | Bltz | Blez | Bgtz | Bgez
  | Bfp_t | Bfp_f
  | Jump | Jtab | Call | Ret
  | ReadI | ReadF | PrintI | PrintF
  | Halt | Nop
  | Fall_off
      (** the sentinel at slot [n]: raises the "fell off the end of
          procedure" fault, at pc [n], before counting an instruction *)
  | Fuel_trap
      (** never decoded; {!Machine.run_decoded} plants it in a private
          copy of [ops] where a run will exhaust its fuel *)
  | Add_ri_move | Move_add_rr | Add_rr_ld | Move_add_ri
  | Move_move | Add_rr_lw | Slt_rr_bne | Move_lw
      (** A fused pair [First_second] at slot [i]: the instruction at
          [i] (a [First]) followed by the one at [i + 1] (a [Second]),
          each with its own slot's operands.  It counts two
          instructions and continues at [i + 2] (or, for
          [Slt_rr_bne], where the branch goes).  Slot [i + 1] keeps
          its own op, so a transfer into [i + 1] still works; it may
          itself be fused with [i + 2].  A fault in the second half,
          and the branch of [Slt_rr_bne], are reported at pc [i + 1]
          with the count including both.  No transfer, sentinel or
          write to [$zero] is ever a first half, and a second half is
          never the sentinel. *)

val unfuse : op -> op
(** The first half of a fused op; any other op unchanged.
    {!Machine.run_decoded} un-fuses the slot just before a [Fuel_trap]
    it plants, so the pair cannot step over the trap. *)

type dproc = {
  ops : op array;
      (** dense opcode per instruction slot, [n + 1] entries: slot [n]
          is [Fall_off] *)
  args : int array;
      (** the operand fields (see {!op}), interleaved: [x], [y], [z] of
          slot [i] at [3i], [3i + 1], [3i + 2]; [3 (n + 1)] entries.
          [z] is the branch target where there is one. *)
  runs : int array;
      (** [runs.(i)] counts the instructions from slot [i] up to and
          including the next control transfer (a conditional branch,
          [Jump], [Jtab], [Call], [Ret] or [Halt]), or up to
          the sentinel if none comes first: 1 at a transfer,
          [1 + runs.(i + 1)] elsewhere, 0 at the sentinel *)
  jtabs : int array array;  (** jump tables, indexed by [y] *)
  fimms : float array;      (** float immediates, indexed by [y] *)
}

type t = {
  prog : Mips.Program.t;    (** the program this was decoded from *)
  procs : dproc array;      (** decoded bodies, in [prog.procs] order *)
}

val of_program : Mips.Program.t -> t
(** Decode every procedure.  Raises {!Mips.Program.Unknown_procedure}
    if a [Jal] names a procedure the program does not define (programs
    built through {!Mips.Program.make} are already validated), and
    [Invalid_argument] if a branch, jump or jump-table target lies
    outside [\[0, n\]] (labels resolved by {!Mips.Asm} never do). *)
