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
      instruction.

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
  | Jump | Jtab | Call | Callr | Ret
  | ReadI | ReadF | PrintI | PrintF
  | Halt | Nop
  | Fall_off
      (** the sentinel at slot [n]: raises the "fell off the end of
          procedure" fault, at pc [n], before counting an instruction *)
  | Fuel_trap
      (** never decoded; {!Machine.run_decoded} plants it in a private
          copy of [ops] where a run will exhaust its fuel *)

type dproc = {
  ops : op array;
      (** dense opcode per instruction slot, [n + 1] entries: slot [n]
          is [Fall_off] *)
  xs : int array;           (** first operand field (see {!op}) *)
  ys : int array;           (** second operand field *)
  zs : int array;           (** third operand field / branch target *)
  runs : int array;
      (** [runs.(i)] counts the instructions from slot [i] up to and
          including the next control transfer (a conditional branch,
          [Jump], [Jtab], [Call], [Callr], [Ret] or [Halt]), or up to
          the sentinel if none comes first: 1 at a transfer,
          [1 + runs.(i + 1)] elsewhere, 0 at the sentinel *)
  jtabs : int array array;  (** jump tables, indexed by [ys] *)
  fimms : float array;      (** float immediates, indexed by [ys] *)
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
