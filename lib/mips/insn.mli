(** Instructions of the MIPS-like intermediate representation.

    The instruction set is a faithful subset of the MIPS R2000 as seen
    by QPT in the paper: two-way conditional branches with fixed
    targets ([beq]/[bne], the compare-against-zero forms
    [bltz]/[blez]/[bgtz]/[bgez], and the coprocessor-1 forms
    [bc1t]/[bc1f]), word loads and stores, double-precision arithmetic
    with a separate compare flag, direct jumps and calls, and a
    jump-table instruction standing in for compiled [switch]
    statements (a branch "whose target is dynamically determined",
    which the predictors do not handle and the trace analysis counts
    as a break in control).  It holds only what the MiniC code
    generator emits: none of the paper's binaries' indirect calls
    ([jalr]) or address loads ([la]).

    The type is polymorphic in the branch-label representation: the
    code generator emits [string t] with symbolic labels, and
    {!Asm.assemble} resolves them into [int t] whose labels are
    absolute instruction indices within the procedure. *)

type alu =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Sll | Sra
  | Slt | Sle | Seq | Sne

type falu = Fadd | Fsub | Fmul | Fdiv

type zcond = Ltz | Lez | Gtz | Gez
(** Conditions of the compare-against-zero branch forms.  The Opcode
    heuristic predicts [Ltz]/[Lez] not taken and [Gtz]/[Gez] taken. *)

type fcmp = Feq | Flt | Fle
(** Floating-point compare conditions ([c.eq.d] etc.); the result goes
    to the implicit condition flag read by {!Bfp}. *)

type operand = Reg of Reg.t | Imm of int

type 'lab t =
  | Alu of alu * Reg.t * Reg.t * operand  (* rd <- rs OP operand *)
  | Li of Reg.t * int                     (* load immediate *)
  | Move of Reg.t * Reg.t
  | Lw of Reg.t * int * Reg.t             (* rt <- mem[off + base] *)
  | Sw of Reg.t * int * Reg.t             (* mem[off + base] <- rt *)
  | Falu of falu * Freg.t * Freg.t * Freg.t
  | Fneg of Freg.t * Freg.t
  | Fabs of Freg.t * Freg.t               (* abs.d — branchless, like Fortran ABS *)
  | Fli of Freg.t * float
  | Fmove of Freg.t * Freg.t
  | Ld of Freg.t * int * Reg.t            (* ft <- fmem[off + base] *)
  | Sd of Freg.t * int * Reg.t
  | Itof of Freg.t * Reg.t                (* cvt.d.w *)
  | Ftoi of Reg.t * Freg.t                (* trunc.w.d *)
  | Fcmp of fcmp * Freg.t * Freg.t        (* set condition flag *)
  | Beq of Reg.t * Reg.t * 'lab
  | Bne of Reg.t * Reg.t * 'lab
  | Bz of zcond * Reg.t * 'lab
  | Bfp of bool * 'lab                    (* bc1t (true) / bc1f (false) *)
  | J of 'lab
  | Jtab of Reg.t * 'lab array            (* indirect jump via table *)
  | Jal of string                         (* direct call by name *)
  | Ret                                   (* jr $ra *)
  | ReadI of Reg.t                        (* next int of the dataset *)
  | ReadF of Freg.t                       (* next float of the dataset *)
  | PrintI of Reg.t                       (* fold into output checksum *)
  | PrintF of Freg.t
  | Halt

val is_cond_branch : _ t -> bool
(** Two-way conditional branch with a fixed target — the only branches
    the paper's predictors consider. *)

val is_block_end : _ t -> bool
(** Instruction that terminates a basic block: conditional branch,
    jump, jump table, return, or halt.  Calls do {e not} end blocks,
    matching QPT's intra-procedural CFGs. *)

val is_call : _ t -> bool
(** [Jal]. *)

val is_return : _ t -> bool
val is_store : _ t -> bool
(** [Sw] or [Sd] — what the Store heuristic scans for. *)

val branch_target : 'lab t -> 'lab option
(** Target label of a conditional branch or jump, if any. *)

val uses : _ t -> Reg.t list
(** Integer registers read by the instruction, [$zero] included. *)

val defs : _ t -> Reg.t list
(** Integer registers written by the instruction. *)

val fuses : _ t -> Freg.t list
val fdefs : _ t -> Freg.t list

val map_label : ('a -> 'b) -> 'a t -> 'b t

val pp : (Format.formatter -> 'lab -> unit) -> Format.formatter -> 'lab t -> unit
val to_string : int t -> string
(** Disassembly of a resolved instruction. *)
