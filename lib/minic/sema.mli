(** Semantic analysis for MiniC: scope resolution, type checking,
    struct layout, and global data layout.

    The checker alpha-renames locals so every local in a function has
    a unique name, letting the code generator use flat per-function
    symbol tables.  It also gathers the facts register allocation
    needs — per-local static use counts and whether a local's address
    is taken (address-taken locals and aggregates must live in
    memory). *)

exception Error of int * string

type struct_info = {
  fields : (string * Ast.ty * int) list;  (** name, type, word offset *)
  size : int;                             (** in words *)
}

type func_info = {
  ret : Ast.ty;
  params : Ast.param list;  (** alpha-renamed *)
}

type global_info = {
  gaddr : int;  (** absolute word address *)
  gty : Ast.ty;
}

type local_info = {
  lty : Ast.ty;
  mutable addr_taken : bool;
  mutable uses : int;
}

type checked = {
  prog : Ast.program;  (** alpha-renamed program *)
  structs : (string, struct_info) Hashtbl.t;
  globals : (string, global_info) Hashtbl.t;
  funcs : (string, func_info) Hashtbl.t;
  locals : (string, (string, local_info) Hashtbl.t) Hashtbl.t;
      (** per function, keyed by unique local name *)
  globals_words : int;  (** total size of static data *)
  idata : (int * int) list;
  fdata : (int * float) list;
}

val builtin_names : string list
(** [read], [readf] — implemented directly by the code generator. *)

val check : Ast.program -> checked
(** Raises {!Error} with a source line on any static error: unknown
    identifiers, type mismatches, bad lvalues, argument-count errors,
    duplicate definitions, missing [int main()], non-constant global
    initializers, etc. *)

val sizeof : checked -> Ast.ty -> int
(** Size in words; structs looked up in the checked table. *)

val ty_of : checked -> fname:string -> Ast.expr -> Ast.ty
(** Type of an expression in the (alpha-renamed) body of [fname],
    after array decay.  Shared by the checker and the code
    generator so the two never disagree. *)

val lvalue_ty : checked -> fname:string -> Ast.expr -> Ast.ty
(** Non-decayed type of an lvalue expression. *)

val lookup_local : checked -> string -> string -> local_info option
(** [lookup_local c fname x]: the local named [x] (alpha-renamed) of
    function [fname]. *)

val is_float_ty : Ast.ty -> bool

val decay : Ast.ty -> Ast.ty
(** Array-to-pointer decay. *)

