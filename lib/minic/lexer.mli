(** Hand-written lexer for MiniC.

    Supports C-style ([/* */]) and line ([//]) comments, decimal and
    hexadecimal integer literals, floating literals, and the operator
    set of {!Ast.binop}/{!Ast.unop} plus assignment forms. *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | KW of string       (** keywords: int, float, void, struct, if, ... *)
  | PUNCT of string    (** operators and punctuation, e.g. "+", "<<", "->" *)
  | EOF

type t = { tok : token; line : int }

exception Error of int * string
(** Line number and message. *)

val tokenize : string -> t list
(** The whole token stream, ending with [EOF]. *)
