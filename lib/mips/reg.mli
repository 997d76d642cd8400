(** Integer registers of the MIPS-like target.

    The register file mirrors the MIPS R2000 conventions that the
    Ball-Larus heuristics depend on: [zero] is hardwired to 0, [gp]
    addresses global (static) storage, [sp] addresses the stack, and
    [ra] holds return addresses.  The Pointer heuristic treats loads
    off [gp] and [sp] specially, so the distinction is load-bearing. *)

type t = private int
(** A register number in [0, 31]. *)

val of_int : int -> t
(** [of_int n] is register [$n].  Raises [Invalid_argument] unless
    [0 <= n < 32].  Test seam: tests enumerate the register file. *)

val to_int : t -> int

val zero : t (* $0  — hardwired zero *)
val at : t (* $1  — assembler temporary *)
(** Test seam: reserved, never allocated; [test_mips] checks that no
    [t] or [s] register is it. *)

val v0 : t (* $2  — function result *)

val a : int -> t
(** [a i] is argument register [$a0+i] for [0 <= i < 4]. *)

val t : int -> t
(** [t i] is caller-saved temporary [i] for [0 <= i < 10]
    ($8-$15 and $24-$25). *)

val s : int -> t
(** [s i] is callee-saved register [$s0+i] for [0 <= i < 8]. *)

val gp : t (* $28 — global pointer *)
val sp : t (* $29 — stack pointer *)
val fp : t (* $30 — frame pointer *)
(** Test seam, as {!at}. *)

val ra : t (* $31 — return address *)

val num_temps : int
(** Number of [t] registers available to expression evaluation. *)

val num_saved : int
(** Number of [s] registers available to register allocation. *)

val equal : t -> t -> bool
val name : t -> string
(** Conventional MIPS name, e.g. ["$sp"], ["$t3"]. *)
