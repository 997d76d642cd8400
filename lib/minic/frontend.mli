(** End-to-end MiniC compilation.

    [compile src] parses, checks, and compiles [src] together with the
    runtime prelude — a small MiniC "libc" (allocator, abs/min/max,
    block fill/copy, a linear-congruential generator) that is compiled
    and analysed with every program, just as the paper's measurements
    include DEC Ultrix library procedures. *)

exception Error of string
(** Any front-end failure, with phase and line information folded into
    the message. *)

val prelude : string
(** Source text of the runtime prelude.  Test seam: [test_minic]
    compiles it alone. *)

val compile : ?optimize:bool -> string -> Mips.Program.t
(** Compile a translation unit whose entry point is [int main()],
    under the layout of {!Mips.Program}.
    @param optimize run the peephole pass (default true). *)

val parse_and_check : string -> Sema.checked
(** Front half only, on [src] alone.  Test seam: [test_minic] checks
    type errors without code generation. *)

val check_with_prelude : string -> Sema.checked
(** Front half of {!compile}: [src] checked together with the prelude.
    An error's line is counted in [src]; one inside the prelude itself
    says "prelude line N". *)

val initial_idata : Sema.checked -> (int * int) list
(** [initial_idata c] is the integer memory image [c] starts from: the
    globals' initialisers, then [__heap_ptr] set to
    {!Mips.Program.heap_base}.  [c] must include the prelude. *)
