(** Code generation from checked MiniC to the MIPS-like IR.

    The generator reproduces the code idioms the Ball-Larus heuristics
    key on, at roughly the "-O" level of the paper's benchmarks:

    - [while]/[for] loops are rotated — an entry guard branch around a
      bottom-tested loop body — exactly the "if-then around a do-until
      loop" shape Section 4.2 describes;
    - comparisons against zero compile to the [bltz]/[blez]/[bgtz]/
      [bgez] opcodes the Opcode heuristic inspects;
    - frequently used scalar locals live in callee-saved registers
      ($s0-$s7 and $f20-$f27), so null-pointer guards branch on the
      variable's own register and value guards leave the tested
      register visibly used in the successor block (the paper notes
      the Guard heuristic depends on global register allocation);
    - globals are addressed off [$gp], locals off [$sp], heap data off
      ordinary registers — the distinction the Pointer heuristic uses;
    - [switch] compiles to a bounds-checked jump table (an indirect
      jump, i.e. an unconditional break in control). *)

exception Error of string

val gen_program : Sema.checked -> (string * Mips.Asm.item list) list
(** All functions of the checked program, in source order.  Raises
    {!Error} on generator limits (e.g. an expression needing more than
    the 10 temporaries). *)
