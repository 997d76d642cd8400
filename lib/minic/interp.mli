(** A reference interpreter for checked MiniC programs.

    The interpreter executes the (alpha-renamed) AST directly, with a
    word-addressed memory laid out exactly like the compiled program's
    (globals from {!Sema.checked}, a downward stack, the same bump
    allocator driven by the interpreted prelude).  It exists as a
    semantics oracle: for any program whose behaviour does not depend
    on uninitialised storage, [Interp.run] and compiling with
    {!Frontend.compile} then running on {!Sim.Machine} must produce
    the same output checksum and read the same inputs.  The
    differential tests in [test/test_interp.ml] exercise exactly
    that. *)

exception Fault of string
(** Mirrors {!Sim.Machine.Fault}: bad addresses, division by zero,
    float-to-int overflow, stack overflow, step limit. *)

type stats = {
  checksum : int;   (** same folding as the simulator's [print] *)
  ints_read : int;
  floats_read : int;
  steps : int;      (** statements + expressions evaluated *)
}

val run : ?max_steps:int -> string -> Sim.Dataset.t -> stats
(** Parse, check, and interpret a MiniC source (with the prelude) on a
    dataset, under the layout of {!Mips.Program}. *)
