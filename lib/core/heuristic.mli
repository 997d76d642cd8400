(** The seven Ball-Larus heuristics for non-loop branches (Section 4).

    Each heuristic either declines to predict ([None]) or predicts a
    direction ([Some true] = taken, [Some false] = fall-through).  The
    successor-property heuristics (Loop, Call, Return, Guard, Store)
    apply only when {e exactly one} successor has the property. *)

type t =
  | Opcode  (** [bltz]/[blez] not taken, [bgtz]/[bgez] taken; FP
                equality tests false *)
  | Loop    (** successor that is a loop head or preheader (and not a
                postdominator) is taken: loops are executed, not
                avoided *)
  | Call    (** successor leading to a call (and not a postdominator)
                is avoided: conditional calls handle exceptional
                situations *)
  | Return  (** successor leading to a return is avoided: returns are
                the base case of recursion and error exits *)
  | Guard   (** successor that uses a branch-operand register before
                defining it (and is not a postdominator) is taken:
                guards normally pass the value through *)
  | Store   (** successor containing a store (and not a postdominator)
                is avoided *)
  | Point   (** pointer comparisons: [p == q] and null tests are false,
                [p != q] true — recognised from load/compare sequences
                not addressed off [$gp] *)

val all : t list
(** In the paper's Table 3 column order:
    [Opcode; Loop; Call; Return; Guard; Store; Point]. *)

val count : int
val to_int : t -> int
(** Index of the heuristic in {!all}. *)

val of_int : int -> t
val name : t -> string

val branch_operands : Cfg.Analysis.t -> int -> int * int
(** Registers tested by the conditional branch terminating the block,
    as masks in the form of {!Cfg.Analysis.t}'s [use_mask]/[fuse_mask]:
    its integer operands (excluding [$zero]), and — for coprocessor
    branches — the operands of the latest [Fcmp] in the same block. *)

val uses_before_def : Cfg.Analysis.t -> int -> imask:int -> fmask:int -> bool
(** [uses_before_def a s ~imask ~fmask]: does block [s] read one of the
    integer registers in [imask] or floating registers in [fmask]
    before (re)defining it?  The Guard heuristic's core test, exposed
    for the extended variants of {!Heuristic_ext}. *)

val by_property :
  predict_with:bool -> (int -> bool) -> taken:int -> fall:int -> bool option
(** [by_property ~predict_with prop ~taken ~fall] predicts only when
    exactly one successor has [prop]: [Some predict_with] when it is
    the taken one, [Some (not predict_with)] when it is the
    fall-through, [None] otherwise. *)

val apply : t -> Cfg.Analysis.t -> block:int -> taken:int -> fall:int -> bool option
(** [apply h a ~block ~taken ~fall] runs heuristic [h] on the branch
    terminating [block] whose taken/fall-through successors are the
    given blocks.  Returns the predicted direction, or [None] when the
    heuristic does not apply. *)
