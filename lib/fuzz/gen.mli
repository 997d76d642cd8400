(** Seeded random MiniC program generator.

    Programs are grown as a typed AST over a fixed storage skeleton —
    four global ints, a global float, a 16-word global array, and an
    8-word heap buffer — and printed to MiniC source.  Every generated
    program is, by construction:

    - {e deterministic}: no input reads, no uninitialised locals;
    - {e terminating}: all loops have constant bounds with reserved
      counters, the helper call graph is acyclic, and [continue] can
      never skip a countdown;
    - {e fault-free}: divisors are forced non-zero (a divisor that
      calls a helper is evaluated once, with its low bit set), shift
      amounts and array indices are masked, pointers stay inside the
      global and heap arrays, and floats are never cast back to int.

    The grammar deliberately exercises everything the seven
    Ball-Larus heuristics look at: nested conditionals, [for] /
    [while] / [do-while] loops (Loop, and loop-classified branches),
    conditional calls (Call), early returns in helpers (Return),
    stores under branches (Store), comparisons against zero and
    float-equality tests (Opcode), value guards (Guard), and pointer
    comparisons (Point), plus [switch] jump tables for the trace
    experiments' break-in-control accounting.

    The AST is exposed so {!Shrink} can reduce failing programs
    structurally. *)

(** {1 AST} *)

type iexpr =
  | Ci of int                        (** integer literal *)
  | Gv of int                        (** global [g0..g3] *)
  | Lv of string                     (** int local / param / counter *)
  | Arr of iexpr                     (** [ga[(e) & 15]] *)
  | Hp of iexpr                      (** [hp[(e) & 7]] *)
  | Deref of int                     (** [*p0] / [*p1] *)
  | Un of string * iexpr             (** [-e], [!e], [~e] *)
  | Bin of string * iexpr * iexpr    (** guarded [/ % << >>], plain rest *)
  | Tern of iexpr * iexpr * iexpr
  | CallE of int * iexpr list        (** helper call *)
  | Fcmpi of string * fexpr * fexpr  (** float comparison as condition *)
  | Pcmp of string * pexpr * pexpr   (** pointer comparison *)

and fexpr =
  | Cf of float
  | Fg                               (** global [gf] *)
  | Flv of string                    (** float local [f0] *)
  | Fbin of char * fexpr * fexpr     (** [+ - *] *)
  | Fdivc of fexpr * float           (** division by a non-zero constant *)
  | Foi of iexpr                     (** [(float) e] *)

and pexpr =
  | Pnull
  | Pv of int                        (** pointer local [p0] / [p1] *)
  | Pga of iexpr                     (** [ga + ((e) & 15)] *)

type ilhs =
  | LGv of int
  | LLv of string
  | LArr of iexpr
  | LHp of iexpr
  | LDeref of int

type stmt =
  | Iassign of ilhs * string * iexpr   (** op: [=], [+=], [-=], [^=], [&=], [|=] *)
  | Fassign of bool * fexpr            (** [gf] (true) or [f0] (false) [= e] *)
  | Passign of int * pexpr             (** [p<k> = e] *)
  | If of iexpr * stmt list * stmt list
  | For of string * int * stmt list    (** [for (v = 0; v < k; v++)] *)
  | While of string * int * stmt list  (** [v = k; while (v > 0) { v--; … }] *)
  | DoWhile of string * int * stmt list
  | Switch of iexpr * (int * stmt list) list * stmt list
  | SPrint of iexpr
  | SPrintF of fexpr
  | SCall of int * iexpr list
  | Ret of iexpr                       (** helpers only *)
  | Break                              (** directly inside a loop only *)
  | Continue

type func = {
  arity : int;            (** int params [a0..] *)
  body : stmt list;
  ret : iexpr;            (** final [return e;] *)
}

type program = {
  helpers : func array;   (** helper [i] may only call [j > i] *)
  main_body : stmt list;
}

(** {1 Generation} *)

val case_seed : seed:int -> index:int -> int
(** Per-case seed derived from the run seed — stable across runs and
    independent of generation order. *)

val generate : seed:int -> size:int -> program
(** Grow a program from [seed] with roughly [size] statements. *)

val to_source : program -> string
(** Print to MiniC source, including the storage skeleton,
    deterministic initialisation, and a final dump of all mutable
    state (so the output checksum covers everything the program
    touched). *)
