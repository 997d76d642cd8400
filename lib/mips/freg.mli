(** Floating-point registers ($f0-$f31) of the MIPS-like target.

    Following the MIPS R2000 coprocessor-1 convention, [$f0] returns
    function results and [$f12]-[$f15] pass arguments.  A single
    condition flag (set by compare instructions, tested by
    [bc1t]/[bc1f]) lives in the simulator, not in this file. *)

type t = private int

val of_int : int -> t
(** Test seam: tests enumerate the register file. *)

val to_int : t -> int

val f0 : t
(** Function result register. *)

val arg : int -> t
(** [arg i] is floating argument register [$f12+i] for [0 <= i < 4]. *)

val temp : int -> t
(** [temp i] is caller-saved temporary [$f4+i] for [0 <= i < 8]. *)

val saved : int -> t
(** [saved i] is callee-saved register [$f20+i] for [0 <= i < 8]. *)

val num_temps : int
val num_saved : int

val equal : t -> t -> bool
val name : t -> string
