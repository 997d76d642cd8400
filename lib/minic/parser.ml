open Ast

exception Error of int * string

(* The tokens not yet consumed, ending with [EOF].  The parser walks
   the lexer's list itself: copying a whole program's tokens into an
   array cost more than lexing it. *)
type state = { mutable toks : Lexer.t list }

let peek st = List.hd st.toks

let peek2 st =
  match st.toks with
  | _ :: t :: _ -> t
  | _ -> peek st

let line st = (peek st).line
let advance st = st.toks <- List.tl st.toks

let error st msg = raise (Error (line st, msg))

let describe = function
  | Lexer.INT n -> string_of_int n
  | Lexer.FLOAT f -> string_of_float f
  | Lexer.IDENT s -> Printf.sprintf "identifier %s" s
  | Lexer.KW s -> Printf.sprintf "keyword %s" s
  | Lexer.PUNCT s -> Printf.sprintf "%S" s
  | Lexer.EOF -> "end of input"

let expect_punct st p =
  match (peek st).tok with
  | Lexer.PUNCT q when String.equal p q -> advance st
  | t -> error st (Printf.sprintf "expected %S, found %s" p (describe t))

let expect_kw st k =
  match (peek st).tok with
  | Lexer.KW q when String.equal k q -> advance st
  | t -> error st (Printf.sprintf "expected %s, found %s" k (describe t))

let accept_punct st p =
  match (peek st).tok with
  | Lexer.PUNCT q when String.equal p q ->
    advance st;
    true
  | _ -> false

let is_punct st p =
  match (peek st).tok with
  | Lexer.PUNCT q -> String.equal p q
  | _ -> false

let is_kw st k =
  match (peek st).tok with Lexer.KW q -> String.equal k q | _ -> false

let ident st =
  match (peek st).tok with
  | Lexer.IDENT s ->
    advance st;
    s
  | t -> error st (Printf.sprintf "expected identifier, found %s" (describe t))

(* --- types --------------------------------------------------------- *)

let starts_type st =
  is_kw st "int" || is_kw st "float" || is_kw st "void" || is_kw st "struct"

let rec parse_base_type st =
  if is_kw st "int" then (advance st; Tint)
  else if is_kw st "float" then (advance st; Tfloat)
  else if is_kw st "void" then (advance st; Tvoid)
  else if is_kw st "struct" then begin
    advance st;
    Tstruct (ident st)
  end
  else error st "expected a type"

and parse_type st =
  let base = parse_base_type st in
  let rec stars t = if accept_punct st "*" then stars (Tptr t) else t in
  stars base

(* --- expressions --------------------------------------------------- *)

let mk st e = { e; line = line st }

let int_one st = mk st (Int_lit 1)

let rec parse_expr_st st = parse_assign st

and parse_assign st =
  let lhs = parse_ternary st in
  let compound op =
    advance st;
    let rhs = parse_assign st in
    { e = Assign (lhs, { e = Binop (op, lhs, rhs); line = lhs.line }); line = lhs.line }
  in
  match (peek st).tok with
  | Lexer.PUNCT "=" ->
    advance st;
    let rhs = parse_assign st in
    { e = Assign (lhs, rhs); line = lhs.line }
  | Lexer.PUNCT "+=" -> compound Add
  | Lexer.PUNCT "-=" -> compound Sub
  | Lexer.PUNCT "*=" -> compound Mul
  | Lexer.PUNCT "/=" -> compound Div
  | Lexer.PUNCT "%=" -> compound Mod
  | Lexer.PUNCT "&=" -> compound Band
  | Lexer.PUNCT "|=" -> compound Bor
  | Lexer.PUNCT "^=" -> compound Bxor
  | Lexer.PUNCT "<<=" -> compound Shl
  | Lexer.PUNCT ">>=" -> compound Shr
  | _ -> lhs

and parse_ternary st =
  let c = parse_binary st 0 in
  if accept_punct st "?" then begin
    let a = parse_assign st in
    expect_punct st ":";
    let b = parse_assign st in
    { e = Cond (c, a, b); line = c.line }
  end
  else c

(* Precedence climbing; level 0 is '||'. *)
and binop_at_level st level =
  match (peek st).tok with
  | Lexer.PUNCT p -> (
    match (level, p) with
    | 0, "||" -> Some Lor
    | 1, "&&" -> Some Land
    | 2, "|" -> Some Bor
    | 3, "^" -> Some Bxor
    | 4, "&" -> Some Band
    | 5, "==" -> Some Eq
    | 5, "!=" -> Some Ne
    | 6, "<=" -> Some Le
    | 6, ">=" -> Some Ge
    | 6, "<" -> Some Lt
    | 6, ">" -> Some Gt
    | 7, "<<" -> Some Shl
    | 7, ">>" -> Some Shr
    | 8, "+" -> Some Add
    | 8, "-" -> Some Sub
    | 9, "*" -> Some Mul
    | 9, "/" -> Some Div
    | 9, "%" -> Some Mod
    | _ -> None)
  | _ -> None

and parse_binary st level =
  if level > 9 then parse_unary st
  else begin
    let lhs = ref (parse_binary st (level + 1)) in
    let continue = ref true in
    while !continue do
      match binop_at_level st level with
      | Some op ->
        advance st;
        let rhs = parse_binary st (level + 1) in
        lhs := { e = Binop (op, !lhs, rhs); line = !lhs.line }
      | None -> continue := false
    done;
    !lhs
  end

and parse_unary st =
  let l = line st in
  if accept_punct st "!" then { e = Unop (Not, parse_unary st); line = l }
  else if accept_punct st "~" then { e = Unop (Bnot, parse_unary st); line = l }
  else if accept_punct st "-" then { e = Unop (Neg, parse_unary st); line = l }
  else if accept_punct st "*" then { e = Deref (parse_unary st); line = l }
  else if accept_punct st "&" then { e = Addr (parse_unary st); line = l }
  else if accept_punct st "++" then begin
    let e = parse_unary st in
    { e = Assign (e, { e = Binop (Add, e, int_one st); line = l }); line = l }
  end
  else if accept_punct st "--" then begin
    let e = parse_unary st in
    { e = Assign (e, { e = Binop (Sub, e, int_one st); line = l }); line = l }
  end
  else if is_punct st "(" && (match (peek2 st).tok with
                              | Lexer.KW ("int" | "float" | "void" | "struct") -> true
                              | _ -> false)
  then begin
    expect_punct st "(";
    let ty = parse_type st in
    expect_punct st ")";
    { e = Cast (ty, parse_unary st); line = l }
  end
  else if is_kw st "sizeof" then begin
    advance st;
    expect_punct st "(";
    let ty = parse_type st in
    expect_punct st ")";
    { e = Sizeof ty; line = l }
  end
  else parse_postfix st

and parse_postfix st =
  let l = line st in
  let prim = parse_primary st in
  let rec loop acc =
    if accept_punct st "[" then begin
      let idx = parse_expr_st st in
      expect_punct st "]";
      loop { e = Index (acc, idx); line = l }
    end
    else if accept_punct st "->" then loop { e = Arrow (acc, ident st); line = l }
    else if accept_punct st "." then loop { e = Dot (acc, ident st); line = l }
    else if is_punct st "++" then begin
      advance st;
      { e = Assign (acc, { e = Binop (Add, acc, int_one st); line = l }); line = l }
    end
    else if is_punct st "--" then begin
      advance st;
      { e = Assign (acc, { e = Binop (Sub, acc, int_one st); line = l }); line = l }
    end
    else acc
  in
  loop prim

and parse_primary st =
  let l = line st in
  match (peek st).tok with
  | Lexer.INT n ->
    advance st;
    { e = Int_lit n; line = l }
  | Lexer.FLOAT f ->
    advance st;
    { e = Float_lit f; line = l }
  | Lexer.KW "null" ->
    advance st;
    { e = Null; line = l }
  | Lexer.IDENT name ->
    advance st;
    if accept_punct st "(" then begin
      let args = parse_args st in
      { e = Call (name, args); line = l }
    end
    else { e = Var name; line = l }
  | Lexer.PUNCT "(" ->
    advance st;
    let e = parse_expr_st st in
    expect_punct st ")";
    e
  | t -> error st (Printf.sprintf "expected expression, found %s" (describe t))

and parse_args st =
  if accept_punct st ")" then []
  else begin
    let rec loop acc =
      let e = parse_assign st in
      if accept_punct st "," then loop (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    loop []
  end

(* --- statements ---------------------------------------------------- *)

let rec parse_stmt st =
  let l = line st in
  let node =
    if is_punct st "{" then Block (parse_block st)
    else if starts_type st then begin
      let ty = parse_base_type st in
      let rec stars t = if accept_punct st "*" then stars (Tptr t) else t in
      let ty = stars ty in
      let name = ident st in
      if accept_punct st "[" then begin
        let size =
          match (peek st).tok with
          | Lexer.INT n ->
            advance st;
            n
          | _ -> error st "array size must be an integer literal"
        in
        expect_punct st "]";
        expect_punct st ";";
        Decl (Tarray (ty, size), name, None)
      end
      else begin
        let init = if accept_punct st "=" then Some (parse_expr_st st) else None in
        expect_punct st ";";
        Decl (ty, name, init)
      end
    end
    else if is_kw st "if" then begin
      advance st;
      expect_punct st "(";
      let c = parse_expr_st st in
      expect_punct st ")";
      let then_ = parse_stmt_as_block st in
      let else_ =
        if is_kw st "else" then begin
          advance st;
          parse_stmt_as_block st
        end
        else []
      in
      If (c, then_, else_)
    end
    else if is_kw st "while" then begin
      advance st;
      expect_punct st "(";
      let c = parse_expr_st st in
      expect_punct st ")";
      While (c, parse_stmt_as_block st)
    end
    else if is_kw st "do" then begin
      advance st;
      let body = parse_stmt_as_block st in
      expect_kw st "while";
      expect_punct st "(";
      let c = parse_expr_st st in
      expect_punct st ")";
      expect_punct st ";";
      Do_while (body, c)
    end
    else if is_kw st "for" then begin
      advance st;
      expect_punct st "(";
      let init = if is_punct st ";" then None else Some (parse_expr_st st) in
      expect_punct st ";";
      let cond = if is_punct st ";" then None else Some (parse_expr_st st) in
      expect_punct st ";";
      let step = if is_punct st ")" then None else Some (parse_expr_st st) in
      expect_punct st ")";
      For (init, cond, step, parse_stmt_as_block st)
    end
    else if is_kw st "switch" then begin
      advance st;
      expect_punct st "(";
      let e = parse_expr_st st in
      expect_punct st ")";
      expect_punct st "{";
      let cases = ref [] in
      let default = ref [] in
      while not (accept_punct st "}") do
        if is_kw st "case" then begin
          let rec labels acc =
            expect_kw st "case";
            let v =
              match (peek st).tok with
              | Lexer.INT n ->
                advance st;
                n
              | Lexer.PUNCT "-" ->
                advance st;
                (match (peek st).tok with
                | Lexer.INT n ->
                  advance st;
                  -n
                | _ -> error st "case label must be an integer literal")
              | _ -> error st "case label must be an integer literal"
            in
            expect_punct st ":";
            if is_kw st "case" then labels (v :: acc) else List.rev (v :: acc)
          in
          let vals = labels [] in
          let body = parse_case_body st in
          cases := (vals, body) :: !cases
        end
        else if is_kw st "default" then begin
          advance st;
          expect_punct st ":";
          default := parse_case_body st
        end
        else error st "expected case or default"
      done;
      Switch (e, List.rev !cases, !default)
    end
    else if is_kw st "return" then begin
      advance st;
      let e = if is_punct st ";" then None else Some (parse_expr_st st) in
      expect_punct st ";";
      Return e
    end
    else if is_kw st "break" then begin
      advance st;
      expect_punct st ";";
      Break
    end
    else if is_kw st "continue" then begin
      advance st;
      expect_punct st ";";
      Continue
    end
    else if is_kw st "print" then begin
      advance st;
      expect_punct st "(";
      let e = parse_expr_st st in
      expect_punct st ")";
      expect_punct st ";";
      Print e
    end
    else if is_kw st "halt" then begin
      advance st;
      expect_punct st ";";
      Halt_stmt
    end
    else begin
      let e = parse_expr_st st in
      expect_punct st ";";
      Expr e
    end
  in
  { s = node; sline = l }

and parse_stmt_as_block st =
  if is_punct st "{" then parse_block st else [ parse_stmt st ]

and parse_block st =
  expect_punct st "{";
  let rec loop acc =
    if accept_punct st "}" then List.rev acc else loop (parse_stmt st :: acc)
  in
  loop []

and parse_case_body st =
  let stop () = is_kw st "case" || is_kw st "default" || is_punct st "}" in
  let rec loop acc = if stop () then List.rev acc else loop (parse_stmt st :: acc) in
  loop []

(* --- top level ------------------------------------------------------ *)

let parse_decl_node st =
  if is_kw st "struct" && (match (peek2 st).tok with Lexer.IDENT _ -> true | _ -> false)
     && (match st.toks with
        | _ :: _ :: { tok = Lexer.PUNCT "{"; _ } :: _ -> true
        | _ -> false)
  then begin
    advance st;
    let name = ident st in
    expect_punct st "{";
    let fields = ref [] in
    while not (accept_punct st "}") do
      let fty = parse_type st in
      let fname = ident st in
      expect_punct st ";";
      fields := (fty, fname) :: !fields
    done;
    expect_punct st ";";
    Struct_def (name, List.rev !fields)
  end
  else begin
    let ty = parse_type st in
    let name = ident st in
    if accept_punct st "(" then begin
      let params =
        if accept_punct st ")" then []
        else begin
          let rec loop acc =
            let pty = parse_type st in
            let pname = ident st in
            if accept_punct st "," then loop ((pty, pname) :: acc)
            else begin
              expect_punct st ")";
              List.rev ((pty, pname) :: acc)
            end
          in
          loop []
        end
      in
      let body = parse_block st in
      Func (ty, name, params, body)
    end
    else if accept_punct st "[" then begin
      let size =
        match (peek st).tok with
        | Lexer.INT n ->
          advance st;
          n
        | _ -> error st "array size must be an integer literal"
      in
      expect_punct st "]";
      expect_punct st ";";
      Global (Tarray (ty, size), name, None)
    end
    else begin
      let init = if accept_punct st "=" then Some (parse_expr_st st) else None in
      expect_punct st ";";
      Global (ty, name, init)
    end
  end

let parse_decl st =
  let dline = line st in
  { d = parse_decl_node st; dline }

let parse src =
  let st = { toks = Lexer.tokenize src } in
  let rec loop acc =
    match (peek st).tok with
    | Lexer.EOF -> List.rev acc
    | _ -> loop (parse_decl st :: acc)
  in
  loop []

let parse_expr src =
  let st = { toks = Lexer.tokenize src } in
  let e = parse_expr_st st in
  (match (peek st).tok with
  | Lexer.EOF -> ()
  | t -> error st (Printf.sprintf "trailing input: %s" (describe t)));
  e
