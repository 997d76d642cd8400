(** The execution substrate: a word-addressed interpreter for linked
    programs.

    This stands in for the paper's DECstation: it executes programs
    instruction by instruction and surfaces the events QPT's
    instrumentation observed — conditional-branch outcomes (for edge
    profiles) and indirect transfers, which here are jump-table
    transfers only (for break-in-control accounting).  Output is folded into a checksum so workloads stay
    deterministic and testable without an I/O system. *)

type iplane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** An integer memory plane: one word per address. *)

type fplane =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A float memory plane: one word per address. *)

val map_planes : unit -> iplane * fplane
(** A fresh pair of zero-filled planes of {!Mips.Program.mem_words}
    words each.  Both are private mappings of [/dev/zero], so a page
    becomes resident only when a program first writes it; reading an
    untouched page yields 0.  Needs a mappable [/dev/zero] (Linux,
    the BSDs).  The pages are returned to the system when the GC
    finalises the plane. *)

type t = {
  prog : Mips.Program.t;
  iregs : int array;          (** 32 integer registers; [0] stays 0 *)
  fregs : float array;        (** 32 floating registers *)
  mutable fcc : bool;         (** coprocessor-1 condition flag *)
  mem_i : iplane;             (** integer view of memory, in words *)
  mem_f : fplane;             (** float view of memory, in words *)
  mutable proc : int;         (** current procedure index *)
  mutable pc : int;           (** current instruction index *)
  mutable instrs : int;       (** instructions executed so far *)
  mutable checksum : int;     (** folded [print] output *)
  mutable icursor : int;
  mutable fcursor : int;
  input : Dataset.t;
}

exception Fault of string
(** Runtime error (bad address, division by zero, stack overflow, …)
    with location context. *)

exception Out_of_fuel of string
(** The run exceeded its instruction (fuel) budget.  Distinct from
    {!Fault} so the supervision layer can classify runaway programs as
    [Fuel_exhausted] rather than hard errors; carries the same
    location context as {!Fault}. *)

type stats = {
  instr_count : int;
  checksum : int;
  ints_read : int;
  floats_read : int;
}

val run :
  ?max_instrs:int ->
  ?on_branch:(t -> taken:bool -> unit) ->
  ?on_indirect:(t -> unit) ->
  Mips.Program.t -> Dataset.t -> stats
(** Execute the program on the dataset until [Halt] (or a return from
    the entry procedure).  [on_branch] fires at every conditional
    branch, after the condition is evaluated and before the transfer —
    [t.proc]/[t.pc] still address the branch.  [on_indirect] fires at
    jump-table transfers, the only indirect transfers.

    Decodes with {!Decode.of_program} and runs {!run_decoded}; callers
    executing the same program many times should decode once
    themselves.

    @param max_instrs raise {!Out_of_fuel} after this many
    instructions (default: 2_000_000_000).  A program that halts in
    exactly [N] instructions succeeds with [~max_instrs:N] and runs
    out of fuel with [~max_instrs:(N - 1)]. *)

val run_decoded :
  ?max_instrs:int ->
  ?on_branch:(t -> taken:bool -> unit) ->
  ?on_indirect:(t -> unit) ->
  Decode.t -> Dataset.t -> stats
(** Like {!run} on a program decoded up front.  The hot loop keeps the
    current procedure, program counter and instruction count in locals
    and dispatches on the dense {!Decode.op} code, reading the slot's
    operands from the interleaved [args].  A fused pair of
    {!Decode.op} runs in one dispatch: both halves, two instructions
    counted, on to the slot after the pair; it is observed exactly as
    the two instructions unfused, its second half at its own pc and
    count.  Writes to [$zero] that {!Decode} turned into [Nop] cost no
    register test; those that can fault still fault.  Before every
    [on_branch]/[on_indirect] call and every fault, [t.proc]/[t.pc] are
    set to the current instruction and [t.instrs] to the instructions
    executed, the current one included.  The two faults raised before
    an instruction executes — {!Out_of_fuel}, and falling off the end
    of a procedure — exclude it.  Every fault message ends
    [(at <proc>+<pc>, <instrs> instructions executed)].

    Fuel is checked once per straight-line run (the [runs] of
    {!Decode.dproc}), on entry to the program and wherever a branch
    (taken or not), jump, jump table, call or return lands; it is never
    tested between two instructions of one run (where the budget ends
    inside a run, a private copy of [ops] gets a [Fuel_trap] there and
    {!Decode.unfuse}s the slot before it, so no pair steps over it).
    The outcome is the same as checking
    before every instruction: with [~max_instrs:N] the run stops out of
    fuel before instruction [N + 1], at that instruction's position,
    unless it halts or faults first. *)
