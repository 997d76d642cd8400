(** Control-flow graphs of procedures.

    Each vertex is a basic block of instructions; a block ending with a
    conditional branch has two outgoing edges ({!Taken} and
    {!Fallthru}).  The root is the procedure entry; blocks containing a
    return have no successors, exactly as in the paper's Section 2.
    Calls do not terminate blocks. *)

type edge_kind =
  | Taken      (** conditional branch taken *)
  | Fallthru   (** conditional branch not taken *)
  | Uncond     (** jump, or plain fall-through into the next block *)
  | Switch of int  (** jump-table edge carrying its case index *)

type edge = { src : int; dst : int; kind : edge_kind }

type t = {
  proc : Mips.Program.proc;
  nblocks : int;
  first : int array;  (** first instruction index of each block *)
  last : int array;   (** last instruction index (inclusive) *)
  succs : edge list array;
  preds : edge list array;
  block_of_instr : int array;  (** enclosing block of each instruction *)
}

val build : Mips.Program.proc -> t
(** Partition the procedure body into basic blocks and connect them.
    Unreachable instructions still receive blocks (they are simply not
    reachable from block 0, the entry). *)

val entry : t -> int
(** The entry block (always 0). *)

val block_insns : t -> int -> int Mips.Insn.t list
(** Instructions of a block, in order.  Test seam: [test_predict]'s
    list-based reference heuristics read blocks through it. *)

val terminator : t -> int -> int Mips.Insn.t
(** Last instruction of the block. *)

val branch_edges : t -> int -> (edge * edge) option
(** If the block ends with a conditional branch, its
    [(taken, fallthru)] edge pair. *)

val single_uncond_succ : t -> int -> int option
(** The unique successor of a block that "unconditionally passes
    control" — i.e. it ends in a jump or plain fall-through, not a
    conditional branch, switch, or return. *)

val iter_edges : (edge -> unit) -> t -> unit

val pp : Format.formatter -> t -> unit
val to_dot : Format.formatter -> t -> unit
