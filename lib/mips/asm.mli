(** Symbolic assembly and label resolution.

    The code generator produces a list of {!item}s — instructions with
    string labels interleaved with label definitions — and [assemble]
    resolves them to an array of instructions whose branch targets are
    instruction indices.  A tiny cleanup pass drops jumps to the
    immediately following instruction, which is what an assembler's
    branch relaxation would do and keeps the CFG free of trivial
    blocks. *)

type item =
  | Ins of string Insn.t
  | Lab of string

exception Unknown_label of string
exception Duplicate_label of string

val assemble : item list -> int Insn.t array
(** Resolve labels to instruction indices.  Raises {!Unknown_label} or
    {!Duplicate_label} on malformed input. *)

