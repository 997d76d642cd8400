(** Linked programs: procedures plus a static-data image, and the one
    memory layout every program runs under.

    The layout mirrors the conventions the Pointer heuristic depends
    on: global (static) storage sits at {!gp_base} and is addressed off
    [$gp]; the heap grows upward from {!heap_base}; the stack grows
    downward from {!stack_base}.  Addresses are in words — the
    simulator is word-addressed throughout. *)

val gp_base : int
(** Start of static data; the value held in [$gp]. *)

val heap_base : int
(** The runtime allocator's initial cursor. *)

val stack_base : int
(** The initial [$sp]. *)

val mem_words : int
(** Total memory size. *)

type proc = {
  name : string;
  index : int;             (** position in {!field-procs} *)
  body : int Insn.t array; (** labels resolved to instruction indices *)
}

type t = {
  procs : proc array;
  entry : int;                    (** index of the start procedure *)
  idata : (int * int) list;       (** initial integer memory image *)
  fdata : (int * float) list;     (** initial float memory image *)
}

exception Unknown_procedure of string

val make :
  ?idata:(int * int) list -> ?fdata:(int * float) list ->
  entry:string -> (string * Asm.item list) list -> t
(** [make ~entry procs] assembles each procedure and links [Jal]
    targets by name.  Raises {!Unknown_procedure} if [entry] or a call
    target is not among [procs].  In the linked image a [Jal] carries
    the procedure's name; the simulator resolves it through
    {!proc_index} once at load time. *)

val proc_index : t -> string -> int
val find_proc : t -> string -> proc

val code_size : t -> int
(** Total instruction count over all procedures — the "code size"
    column of Table 1. *)

val static_branch_count : t -> int
(** Number of two-way conditional branches in the program text. *)

val pp : Format.formatter -> t -> unit
(** Full disassembly. *)
