(** Bundled per-procedure control-flow analyses.

    One-stop shop for everything the predictors consult: the CFG,
    dominators, postdominators, and natural loops of a procedure, plus
    the per-instruction register sets and per-block instruction-class
    flags the heuristics scan, derived once here so no query rebuilds
    an instruction list. *)

type t = {
  graph : Graph.t;
  dom : Dom.t;
  pdom : Dom.t;
  loops : Loops.t;
  use_mask : int array;
      (** per instruction index: the integer registers read
          ({!Mips.Insn.uses}), bit [Reg.to_int r] set for each *)
  def_mask : int array;   (** likewise for {!Mips.Insn.defs} *)
  fuse_mask : int array;  (** likewise for {!Mips.Insn.fuses}, by [Freg.to_int] *)
  fdef_mask : int array;  (** likewise for {!Mips.Insn.fdefs} *)
  has_call : bool array;  (** per block: contains a [Jal] *)
  has_return : bool array;  (** per block: contains a [Ret] *)
  has_store : bool array;  (** per block: contains a [Sw]/[Sd] *)
}

val of_proc : Mips.Program.proc -> t
(** Test seam: tests analyse hand-built procedures one at a time. *)

val of_program : Mips.Program.t -> t array
(** Analysis of every procedure, indexed like [Program.procs]. *)

val postdominates : t -> int -> int -> bool
(** [postdominates t s b]: block [s] postdominates block [b]. *)

val dominates : t -> int -> int -> bool
