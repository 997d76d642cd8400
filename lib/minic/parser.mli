(** Recursive-descent parser for MiniC (Menhir is not available in
    this environment, and the grammar is small enough that hand-written
    precedence climbing stays readable).

    Prefix/postfix [++]/[--] are accepted and desugared to
    assignments whose value is the updated one; compound assignments
    ([+=] etc.) desugar likewise.  [switch] cases are closed blocks —
    fall-through between cases is not supported. *)

exception Error of int * string

val parse : string -> Ast.program
(** Parse a full translation unit.  Raises {!Error} or
    {!Lexer.Error} with a line number on malformed input. *)

val parse_expr : string -> Ast.expr
(** Parse a single expression.  Test seam: [test_minic] checks
    precedence on expressions alone. *)
