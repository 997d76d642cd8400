(* MiniC front-end tests: lexer, parser, semantic analysis, and
   compile-and-execute semantics, including a differential qcheck
   property against a reference expression evaluator. *)

open Check

(* ---- lexer ---- *)

let kinds src =
  List.map (fun (t : Minic.Lexer.t) -> t.tok) (Minic.Lexer.tokenize src)

let test_lex_basic () =
  let open Minic.Lexer in
  checkb "ints" true
    (kinds "42 0x1F" = [ INT 42; INT 31; EOF ]);
  checkb "floats" true
    (kinds "3.5 1.0e2" = [ FLOAT 3.5; FLOAT 100.; EOF ]);
  checkb "idents vs keywords" true
    (kinds "foo int intx" = [ IDENT "foo"; KW "int"; IDENT "intx"; EOF ]);
  checkb "operators longest match" true
    (kinds "<<= << <= <" = [ PUNCT "<<="; PUNCT "<<"; PUNCT "<="; PUNCT "<"; EOF ]);
  checkb "arrow vs minus" true
    (kinds "->-" = [ PUNCT "->"; PUNCT "-"; EOF ])

let test_lex_comments () =
  let open Minic.Lexer in
  checkb "line comment" true (kinds "1 // two\n3" = [ INT 1; INT 3; EOF ]);
  checkb "block comment" true (kinds "1 /* 2\n2 */ 3" = [ INT 1; INT 3; EOF ])

let test_lex_lines () =
  let toks = Minic.Lexer.tokenize "a\nb\n\nc" in
  let lines = List.map (fun (t : Minic.Lexer.t) -> t.line) toks in
  checkb "line numbers" true (lines = [ 1; 2; 4; 4 ])

let test_lex_errors () =
  (try
     ignore (Minic.Lexer.tokenize "a $ b");
     Alcotest.fail "expected lex error"
   with Minic.Lexer.Error (1, _) -> ());
  try
    ignore (Minic.Lexer.tokenize "/* unterminated");
    Alcotest.fail "expected lex error"
  with Minic.Lexer.Error (_, _) -> ()

(* The token streams (tokens and line numbers) of the prelude, every
   workload, 120 seeded generator programs and a few edge cases, as
   one digest, and the two lexical error texts: pinned, so a rewrite
   of the lexer cannot change what it produces. *)
let token_corpus () =
  let fuzz =
    List.init 120 (fun i ->
        let cs = Fuzz.Gen.case_seed ~seed:1993 ~index:i in
        Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:cs ~size:(8 + (i mod 13))))
  in
  (Minic.Frontend.prelude
  :: List.map (fun (wl : Workloads.Workload.t) -> wl.source)
       Workloads.Registry.all)
  @ fuzz
  @ [
      "a/=b x->y 1.e5 1.5e+7 2.5E-3 0x1fG 007 a//c\nb /**/ /***/ x";
      "a<<=b>>=c !== &&& ||| +++ --- ->> ?:~^=%=|=&= \r\n\t.5";
      "int_ intx _int printf halt sizeof null";
    ]

let token_count = 142402
let token_digest = "3d6b79deb3706c009e5196e98b600513"

let render_tokens b src =
  List.iter
    (fun (t : Minic.Lexer.t) ->
      Printf.bprintf b "%d " t.line;
      (match t.tok with
      | Minic.Lexer.INT n -> Printf.bprintf b "I%d" n
      | FLOAT f -> Printf.bprintf b "F%h" f
      | IDENT s -> Printf.bprintf b "N%s" s
      | KW s -> Printf.bprintf b "K%s" s
      | PUNCT s -> Printf.bprintf b "P%s" s
      | EOF -> Buffer.add_string b "EOF");
      Buffer.add_char b '\n')
    (Minic.Lexer.tokenize src)

let test_lex_pinned () =
  let b = Buffer.create (1 lsl 20) in
  List.iter (render_tokens b) (token_corpus ());
  let lines = List.length (String.split_on_char '\n' (Buffer.contents b)) - 1 in
  checki "tokens" token_count lines;
  checks "digest of (line, token)" token_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  let error src =
    match Minic.Lexer.tokenize src with
    | _ -> "no error"
    | exception Minic.Lexer.Error (line, msg) -> Printf.sprintf "%d: %s" line msg
  in
  checks "bad character" "2: unexpected character '$'" (error "a\n $ b");
  checks "bad character after an operator" "1: unexpected character '@'"
    (error "x+@");
  checks "unterminated comment" "3: unterminated comment"
    (error "a /* b\n c\n d *");
  checks "hex prefix without digits" "1: malformed integer literal 0x"
    (error "int x = 0x;");
  checks "exponent without digits" "1: malformed float literal 1.5e+"
    (error "float x = 1.5e+;");
  checks "integer out of range"
    "2: integer literal out of range: 99999999999999999999"
    (error "int x;\nx = 99999999999999999999;")

(* Errors name the line in the program's own text, not in the prelude
   joined before it; a declaration-level error names the line its
   declaration starts on, and only a missing [main] has no line. *)
let test_frontend_error_lines () =
  let error f src =
    match f src with
    | _ -> "no error"
    | exception Minic.Frontend.Error msg -> msg
  in
  let compile = error Minic.Frontend.compile in
  checks "one-line file" {|parse error, line 1: expected ";", found "}"|}
    (compile "int main() { return 0 }");
  let line3 = "int main() {\n  int x;\n  x = y;\n  return 0;\n}\n" in
  checks "line 3" "type error, line 3: unknown variable y" (compile line3);
  checks "interpreter, line 3" "type error, line 3: unknown variable y"
    (error
       (fun src -> Minic.Interp.run src (Sim.Dataset.make ~name:"t" [||]))
       line3);
  checks "lex error" "lex error, line 2: malformed integer literal 0x"
    (compile "int main() {\n  return 0x; }");
  checks "no line" "type error: missing function main"
    (compile "int f() { return 0; }");
  (* each declaration-level error, its declaration starting on line 3 *)
  let main = "int main() { return 0; }\n" in
  List.iter
    (fun (msg, src) -> checks msg ("type error, line 3: " ^ msg) (compile src))
    [
      ("duplicate function iabs",
       main ^ "\nint iabs(int x) {\n  return x;\n}\n");
      ("duplicate function f",
       "int f() { return 0; }\n" ^ main ^ "int f() { return 1; }\n");
      ("read is a builtin and cannot be redefined",
       main ^ "\nint read() { return 0; }\n");
      ("duplicate struct s",
       "struct s { int a; };\n" ^ main ^ "struct s { int b; };\n");
      ("duplicate field in struct s",
       main ^ "\nstruct s {\n  int a;\n  int a;\n};\n");
      ("field x has type void", main ^ "\nstruct s { void x; };\n");
      ("field f: struct t not yet defined",
       main ^ "\nstruct s { struct t f; };\n");
      ("duplicate global g", "int g;\n" ^ main ^ "int g;\n");
      ("global g has type void", main ^ "\nvoid g;\n");
      ("unknown struct u", main ^ "\nstruct u g;\n");
      ("duplicate parameter in f",
       main ^ "\nint f(int a,\n      int a) { return a; }\n");
      ("parameter s of f must be scalar",
       main ^ "\nint f(struct t s) { return 0; }\n");
      ("main must be: int main()",
       "int f() { return 0; }\n\nint main(int x) { return x; }\n");
    ]

(* ---- parser ---- *)

let rec expr_str (e : Minic.Ast.expr) =
  let open Minic.Ast in
  match e.e with
  | Int_lit n -> string_of_int n
  | Float_lit f -> string_of_float f
  | Null -> "null"
  | Var x -> x
  | Binop (op, a, b) ->
    let o =
      match op with
      | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
      | Shl -> "<<" | Shr -> ">>" | Band -> "&" | Bor -> "|" | Bxor -> "^"
      | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
      | Land -> "&&" | Lor -> "||"
    in
    Printf.sprintf "(%s%s%s)" (expr_str a) o (expr_str b)
  | Unop (Neg, a) -> Printf.sprintf "(-%s)" (expr_str a)
  | Unop (Not, a) -> Printf.sprintf "(!%s)" (expr_str a)
  | Unop (Bnot, a) -> Printf.sprintf "(~%s)" (expr_str a)
  | Assign (l, r) -> Printf.sprintf "(%s=%s)" (expr_str l) (expr_str r)
  | Cond (c, a, b) ->
    Printf.sprintf "(%s?%s:%s)" (expr_str c) (expr_str a) (expr_str b)
  | Call (f, args) ->
    Printf.sprintf "%s(%s)" f (String.concat "," (List.map expr_str args))
  | Index (a, i) -> Printf.sprintf "%s[%s]" (expr_str a) (expr_str i)
  | Deref p -> Printf.sprintf "(*%s)" (expr_str p)
  | Addr l -> Printf.sprintf "(&%s)" (expr_str l)
  | Arrow (p, f) -> Printf.sprintf "%s->%s" (expr_str p) f
  | Dot (s, f) -> Printf.sprintf "%s.%s" (expr_str s) f
  | Cast (t, a) -> Printf.sprintf "((%s)%s)" (ty_to_string t) (expr_str a)
  | Sizeof t -> Printf.sprintf "sizeof(%s)" (ty_to_string t)

let parses_as src expected =
  checks src expected (expr_str (Minic.Parser.parse_expr src))

let test_parse_precedence () =
  parses_as "1+2*3" "(1+(2*3))";
  parses_as "1*2+3" "((1*2)+3)";
  parses_as "1+2-3" "((1+2)-3)";
  parses_as "a < b == c" "((a<b)==c)";
  parses_as "a & 3 == 3" "(a&(3==3))" (* the classic C precedence *);
  parses_as "a << 1 + 2" "(a<<(1+2))";
  parses_as "a || b && c" "(a||(b&&c))";
  parses_as "1 + 2 == 3 && 4" "(((1+2)==3)&&4)"

let test_parse_unary_postfix () =
  parses_as "-a[1]" "(-a[1])";
  parses_as "*p->next" "(*p->next)";
  parses_as "&a[i]" "(&a[i])";
  parses_as "!x && y" "((!x)&&y)";
  parses_as "(int)f + 1" "(((int)f)+1)";
  parses_as "sizeof(struct s) * 2" "(sizeof(struct s)*2)"

let test_parse_assign () =
  parses_as "a = b = c" "(a=(b=c))";
  parses_as "a += 2" "(a=(a+2))";
  parses_as "a <<= 1" "(a=(a<<1))";
  parses_as "x++" "(x=(x+1))";
  parses_as "--x" "(x=(x-1))";
  parses_as "c ? a : b" "(c?a:b)"

let test_parse_program () =
  let prog =
    Minic.Parser.parse
      {|
      struct pair { int a; int b; };
      int g = 4;
      int arr[10];
      int f(int x, float y) { return x; }
      int main() { return 0; }
      |}
  in
  checki "decls" 5 (List.length prog)

let test_parse_errors () =
  let bad src =
    try
      ignore (Minic.Parser.parse src);
      Alcotest.fail ("expected parse error: " ^ src)
    with Minic.Parser.Error (_, _) -> ()
  in
  bad "int main() { return 0 }";
  bad "int main() { if x { return 0; } }";
  bad "int main( { return 0; }";
  bad "int f(int) { return 0; }";
  bad "int a[x];"

(* ---- sema ---- *)

let check_ok src = ignore (Minic.Frontend.parse_and_check src)

let check_fails src =
  try
    ignore (Minic.Frontend.parse_and_check src);
    Alcotest.fail ("expected type error: " ^ src)
  with Minic.Frontend.Error _ -> ()

let wrap body = Printf.sprintf "int main() { %s return 0; }" body

let test_sema_ok () =
  check_ok (wrap "int x = 1; float y = 2.0; y = x; x = (int)y;");
  check_ok (wrap "int a[4]; int *p = a; p[1] = 2; *p = 3;");
  check_ok
    ("struct s { int v; struct s *n; };"
    ^ wrap "struct s x; x.v = 1; struct s *p = &x; p->v = 2;");
  check_ok (wrap "int x = 1 && 2 || 0;");
  check_ok ("void x1() {}" ^ wrap "int *p = null; if (p == null) { x1(); }")

let test_sema_errors () =
  check_fails (wrap "y = 1;");
  check_fails (wrap "int x = 1; x = null;");
  check_fails (wrap "int x; float *p = &x;");
  check_fails (wrap "int x; x->f = 1;");
  check_fails (wrap "int a[4]; a = null;");
  check_fails (wrap "3 = 4;");
  check_fails (wrap "int x = 1; int x = 2;");
  check_fails (wrap "break;");
  check_fails (wrap "continue;");
  check_fails (wrap "return 1.0 + null;");
  check_fails "int main() { return; }";
  check_fails "void f() { return 3; } int main() { return 0; }";
  check_fails "int main() { unknown(); return 0; }";
  check_fails "int f(int a, int a) { return a; } int main() { return 0; }";
  check_fails "int main(int x) { return 0; }";
  check_fails "float main() { return 0.0; }";
  check_fails "int g = x; int main() { return 0; }";
  check_fails "int read() { return 0; } int main() { return 0; }";
  check_fails (wrap "int x = 1; switch (x) { case 1: break; case 1: break; }")

let test_sema_shadowing () =
  check_ok (wrap "int x = 1; { int x = 2; x = 3; } x = 4;");
  check_fails (wrap "{ int y = 1; } y = 2;")

let test_sema_struct_layout () =
  let c =
    Minic.Frontend.parse_and_check
      "struct a { int x; float y; }; struct b { struct a inner; int z; };\n\
       int main() { return 0; }"
  in
  let open Minic in
  checki "sizeof a" 2 (Sema.sizeof c (Ast.Tstruct "a"));
  checki "sizeof b" 3 (Sema.sizeof c (Ast.Tstruct "b"));
  checki "sizeof arr" 20 (Sema.sizeof c (Ast.Tarray (Ast.Tstruct "a", 10)));
  checki "sizeof ptr" 1 (Sema.sizeof c (Ast.Tptr (Ast.Tstruct "b")))

let test_sema_recursive_struct_by_value () =
  check_fails "struct s { struct s inner; }; int main() { return 0; }"

(* ---- execution semantics ---- *)

let run_src ?(input = [||]) ?(finput = [||]) src =
  let prog = Minic.Frontend.compile src in
  let ds = Sim.Dataset.make ~floats:finput ~name:"test" input in
  Sim.Machine.run prog ds

let checksum_of values =
  List.fold_left (fun a v -> ((a * 31) + v) land 0x3FFFFFFFFFFF) 0 values

let expect_prints ?input ?finput src values =
  let stats = run_src ?input ?finput src in
  checki
    ("prints of: " ^ String.sub src 0 (min 40 (String.length src)))
    (checksum_of values) stats.checksum

let test_exec_arith () =
  expect_prints (wrap "print(2 + 3 * 4);") [ 14 ];
  expect_prints (wrap "print(17 / 5); print(17 % 5);") [ 3; 2 ];
  expect_prints (wrap "print(-7 / 2); print(1 << 10); print(100 >> 3);")
    [ -3; 1024; 12 ];
  expect_prints (wrap "print(6 & 3); print(6 | 3); print(6 ^ 3); print(~0);")
    [ 2; 7; 5; -1 ];
  expect_prints (wrap "print(3 < 4); print(4 <= 3); print(5 == 5); print(5 != 5);")
    [ 1; 0; 1; 0 ]

let test_exec_float () =
  expect_prints (wrap "float x = 1.5; float y = 2.0; print(x * y + 0.5);")
    [ (* 3.5 * 4096 *) 14336 ];
  expect_prints (wrap "print((int)(7.9)); print((int)(7.2));") [ 7; 7 ];
  expect_prints (wrap "int i = 3; float f = i; print(f / 2.0);") [ 6144 ];
  expect_prints (wrap "print(1.0 < 2.0); print(2.0 == 2.0); print(3.0 <= 2.0);")
    [ 1; 1; 0 ];
  expect_prints (wrap "print(fabs(-2.5)); print(fabs(2.5));") [ 10240; 10240 ]

let test_exec_control () =
  expect_prints
    (wrap "int i; int s = 0; for (i = 0; i < 10; i++) { s += i; } print(s);")
    [ 45 ];
  expect_prints (wrap "int i = 0; while (i < 5) { i++; } print(i);") [ 5 ];
  expect_prints (wrap "int i = 10; do { i--; } while (i > 3); print(i);") [ 3 ];
  expect_prints
    (wrap
       "int i; int s = 0; for (i = 0; i < 10; i++) { if (i == 3) { continue; } \
        if (i == 7) { break; } s += i; } print(s);")
    [ 0 + 1 + 2 + 4 + 5 + 6 ];
  expect_prints
    (wrap "int x = 7; if (x > 5) { print(1); } else { print(2); }")
    [ 1 ];
  (* while loop that never runs: the rotated loop's guard must skip *)
  expect_prints (wrap "int i = 9; while (i < 5) { i++; } print(i);") [ 9 ]

let test_exec_short_circuit () =
  let src =
    {|
int calls = 0;
int bump() {
  calls = calls + 1;
  return 1;
}
int main() {
  int a = 0 && bump();
  int b = 1 || bump();
  int c = 1 && bump();
  print(calls);
  print(a + b * 10 + c * 100);
  return 0;
}
|}
  in
  expect_prints src [ 1; 110 ]

let test_exec_switch () =
  let src =
    wrap
      "int i; int s = 0; for (i = 0; i < 6; i++) { switch (i) { case 0: s += \
       1; break; case 1: case 2: s += 10; break; case 5: s += 100; break; \
       default: s += 1000; } } print(s);"
  in
  (* i=0:1, i=1:10, i=2:10, i=3:1000, i=4:1000, i=5:100 *)
  expect_prints src [ 2121 ]

let test_exec_pointers () =
  expect_prints
    (wrap "int x = 5; int *p = &x; *p = 9; print(x); print(*p);")
    [ 9; 9 ];
  expect_prints
    (wrap
       "int a[5]; int i; for (i = 0; i < 5; i++) { a[i] = i * i; } int *p = a \
        + 2; print(*p); print(p[1]); print(p - a);")
    [ 4; 9; 2 ];
  expect_prints
    ("void swap(int *x, int *y) { int t = *x; *x = *y; *y = t; }"
    ^ wrap "int a = 1; int b = 2; swap(&a, &b); print(a); print(b);")
    [ 2; 1 ]

let test_exec_structs () =
  let src =
    {|
struct point { int x; int y; };
struct rect { struct point lo; struct point hi; };

int area(struct rect *r) {
  return (r->hi.x - r->lo.x) * (r->hi.y - r->lo.y);
}

int main() {
  struct rect r;
  r.lo.x = 1;
  r.lo.y = 2;
  r.hi.x = 5;
  r.hi.y = 7;
  print(area(&r));
  print(sizeof(struct rect));
  return 0;
}
|}
  in
  expect_prints src [ 20; 4 ]

let test_exec_heap () =
  let src =
    {|
struct node { int v; struct node *next; };
int main() {
  struct node *head = null;
  int i;
  int sum = 0;
  for (i = 1; i <= 5; i++) {
    struct node *n = (struct node *)alloc(sizeof(struct node));
    n->v = i * i;
    n->next = head;
    head = n;
  }
  while (head != null) {
    sum += head->v;
    head = head->next;
  }
  print(sum);
  return 0;
}
|}
  in
  expect_prints src [ 55 ]

let test_exec_recursion () =
  expect_prints
    ("int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }"
    ^ wrap "print(fib(15));")
    [ 610 ];
  expect_prints
    ("int ack(int m, int n) { if (m == 0) { return n + 1; } if (n == 0) { \
      return ack(m - 1, 1); } return ack(m - 1, ack(m, n - 1)); }"
    ^ wrap "print(ack(2, 3));")
    [ 9 ]

let test_exec_many_args () =
  expect_prints
    ("int sum8(int a, int b, int c, int d, int e, int f, int g, int h) { \
      return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*g + 8*h; }"
    ^ wrap "print(sum8(1, 2, 3, 4, 5, 6, 7, 8));")
    [ 1 + 4 + 9 + 16 + 25 + 36 + 49 + 64 ];
  expect_prints
    ("float wsum(float a, float b, float c, float d, float e, float f) { \
      return a + b * 2.0 + c * 3.0 + d * 4.0 + e * 5.0 + f * 6.0; }"
    ^ wrap "print(wsum(1.0, 1.0, 1.0, 1.0, 1.0, 1.0));")
    [ 21 * 4096 ]

let test_exec_globals () =
  expect_prints
    ("int counter = 100; int garr[3];\n\
      void tick() { counter = counter + 1; }"
    ^ wrap "tick(); tick(); garr[2] = counter; print(garr[2]);")
    [ 102 ]

let test_exec_read () =
  expect_prints ~input:[| 11; 22 |]
    (wrap "print(read()); print(read()); print(read());")
    [ 11; 22; -1 ];
  expect_prints ~finput:[| 0.5 |] (wrap "print(readf());") [ 2048 ]

let test_exec_ternary () =
  expect_prints (wrap "int x = 3; print(x > 2 ? 10 : 20);") [ 10 ];
  expect_prints (wrap "int x = 1; print(x > 2 ? 10 : 20);") [ 20 ];
  expect_prints (wrap "float f = 1.0 > 2.0 ? 0.25 : 0.75; print(f);") [ 3072 ]

let test_exec_prelude () =
  expect_prints
    (wrap "print(iabs(-5)); print(imin(3, 4)); print(imax(3, 4));")
    [ 5; 3; 4 ];
  expect_prints
    (wrap
       "int a[6]; fill(a, 7, 6); print(a[5]); int b[6]; copy(b, a, 6); \
        print(b[0]);")
    [ 7; 7 ];
  expect_prints
    (wrap
       "srand_(42); int x = rand_(); int y = rand_(); print(x != y); print(x \
        >= 0);")
    [ 1; 1 ]


(* ---- peephole optimiser ---- *)

let test_peephole_rewrites () =
  let open Mips.Asm in
  let module I = Mips.Insn in
  let t0 = Mips.Reg.t 0 and t1 = Mips.Reg.t 1 in
  (* li + alu fuses when the temp is redefined afterwards *)
  let items =
    [
      Ins (I.Li (t1, 5));
      Ins (I.Alu (I.Add, t0, t0, I.Reg t1));
      Ins (I.Li (t1, 9));
      Ins I.Ret;
    ]
  in
  let rewrites name items expected =
    checkb name true (Minic.Peephole.optimize items = expected)
  in
  rewrites "fused" items
    [ Ins (I.Alu (I.Add, t0, t0, I.Imm 5)); Ins (I.Li (t1, 9)); Ins I.Ret ];
  (* not fused when the temp is used later *)
  let items2 =
    [
      Ins (I.Li (t1, 5));
      Ins (I.Alu (I.Add, t0, t0, I.Reg t1));
      Ins (I.PrintI t1);
      Ins I.Ret;
    ]
  in
  rewrites "not fused (live)" items2 items2;
  (* not fused across labels *)
  let items3 =
    [
      Ins (I.Li (t1, 5));
      Ins (I.Alu (I.Add, t0, t0, I.Reg t1));
      Lab "merge";
      Ins I.Ret;
    ]
  in
  rewrites "not fused (label)" items3 items3;
  (* identities and self-branches: the move and both identities go,
     the self-beq becomes a jump and the self-bne goes *)
  rewrites "identities and self-branches"
    [
      Ins (I.Move (t0, t0));
      Ins (I.Alu (I.Add, t0, t0, I.Imm 0));
      Ins (I.Alu (I.Mul, t0, t0, I.Imm 1));
      Ins (I.Beq (t0, t0, "x"));
      Lab "x";
      Ins (I.Bne (t1, t1, "x"));
      Ins I.Ret;
    ]
    [ Ins (I.J "x"); Lab "x"; Ins I.Ret ]

let test_peephole_preserves_semantics () =
  let srcs =
    [
      wrap "int x = 3; int y = x + 5; print(y * 2); print(y == 8);";
      wrap
        "int i; int s = 0; for (i = 0; i < 30; i++) { s += i & 3; } print(s);";
      "int f(int a, int b) { return a * b + 1; }"
      ^ wrap "print(f(4, 5) - f(2, 2));";
    ]
  in
  List.iter
    (fun src ->
      let d = Sim.Dataset.make ~name:"t" [||] in
      let s0 = Sim.Machine.run (Minic.Frontend.compile ~optimize:false src) d in
      let s1 = Sim.Machine.run (Minic.Frontend.compile ~optimize:true src) d in
      checki "checksum preserved" s0.checksum s1.checksum;
      checkb "no more instructions" true (s1.instr_count <= s0.instr_count))
    srcs

(* ---- runtime faults ---- *)

let expect_fault src =
  try
    ignore (run_src src);
    Alcotest.fail "expected a fault"
  with Sim.Machine.Fault _ -> ()

let test_exec_faults () =
  expect_fault (wrap "int x = 0; print(1 / x);");
  expect_fault (wrap "int x = 0; print(1 % x);");
  expect_fault (wrap "int *p = (int *)(0 - 5); print(*p);");
  expect_fault ("int f(int n) { return f(n + 1); }" ^ wrap "print(f(0));")

(* ---- differential property: compiler vs reference evaluator ---- *)

type rexpr =
  | Lit of int
  | Rvar of int
  | Rbin of Minic.Ast.binop * rexpr * rexpr
  | Run of Minic.Ast.unop * rexpr

let var_values = [| 3; -7; 11 |]
let var_names = [| "va"; "vb"; "vc" |]

let rec rprint = function
  | Lit n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Rvar i -> var_names.(i)
  | Run (Minic.Ast.Neg, a) -> Printf.sprintf "(-%s)" (rprint a)
  | Run (Minic.Ast.Not, a) -> Printf.sprintf "(!%s)" (rprint a)
  | Run (Minic.Ast.Bnot, a) -> Printf.sprintf "(~%s)" (rprint a)
  | Rbin (op, a, b) ->
    let open Minic.Ast in
    let o =
      match op with
      | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
      | Shl -> "<<" | Shr -> ">>" | Band -> "&" | Bor -> "|" | Bxor -> "^"
      | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
      | Land -> "&&" | Lor -> "||"
    in
    (* guard division by zero and wild shifts in the generated source;
       the reference evaluator mirrors exactly these guarded forms *)
    (match op with
    | Div | Mod ->
      Printf.sprintf "((%s) %s ((%s) == 0 ? 1 : (%s)))" (rprint a) o (rprint b)
        (rprint b)
    | Shl | Shr -> Printf.sprintf "((%s) %s ((%s) & 15))" (rprint a) o (rprint b)
    | _ -> Printf.sprintf "((%s) %s (%s))" (rprint a) o (rprint b))

let rec reval = function
  | Lit n -> n
  | Rvar i -> var_values.(i)
  | Run (Minic.Ast.Neg, a) -> -reval a
  | Run (Minic.Ast.Not, a) -> if reval a = 0 then 1 else 0
  | Run (Minic.Ast.Bnot, a) -> lnot (reval a)
  | Rbin (op, a, b) ->
    let x = reval a and y = reval b in
    let open Minic.Ast in
    (match op with
    | Add -> x + y
    | Sub -> x - y
    | Mul -> x * y
    | Div -> x / (if y = 0 then 1 else y)
    | Mod -> x mod (if y = 0 then 1 else y)
    | Shl -> x lsl (y land 15)
    | Shr -> x asr (y land 15)
    | Band -> x land y
    | Bor -> x lor y
    | Bxor -> x lxor y
    | Lt -> if x < y then 1 else 0
    | Le -> if x <= y then 1 else 0
    | Gt -> if x > y then 1 else 0
    | Ge -> if x >= y then 1 else 0
    | Eq -> if x = y then 1 else 0
    | Ne -> if x <> y then 1 else 0
    | Land -> if x <> 0 && y <> 0 then 1 else 0
    | Lor -> if x <> 0 || y <> 0 then 1 else 0)

let gen_rexpr =
  let open QCheck.Gen in
  let bop =
    oneofl
      Minic.Ast.
        [ Add; Sub; Mul; Div; Mod; Shl; Shr; Band; Bor; Bxor; Lt; Le; Gt; Ge;
          Eq; Ne; Land; Lor ]
  in
  let uop = oneofl Minic.Ast.[ Neg; Not; Bnot ] in
  let rec gen depth st =
    if depth <= 0 then
      (oneof
         [ map (fun n -> Lit n) (int_range (-50) 50);
           map (fun i -> Rvar i) (int_range 0 2) ])
        st
    else
      (frequency
         [
           (1, map (fun n -> Lit n) (int_range (-50) 50));
           (1, map (fun i -> Rvar i) (int_range 0 2));
           ( 3,
             map3 (fun op a b -> Rbin (op, a, b)) bop (gen (depth - 1))
               (gen (depth - 1)) );
           (1, map2 (fun op a -> Run (op, a)) uop (gen (depth - 1)));
         ])
        st
  in
  gen 4

let arb_rexpr = QCheck.make gen_rexpr ~print:rprint

let prop_compiler_matches_reference =
  QCheck.Test.make ~name:"compiled expressions match the reference evaluator"
    ~count:120 arb_rexpr (fun e ->
      let src =
        Printf.sprintf
          "int main() { int va = 3; int vb = -7; int vc = 11; print(%s); \
           return 0; }"
          (rprint e)
      in
      let stats = run_src src in
      stats.checksum = checksum_of [ reval e ])

let tests =
  [
    ( "lexer",
      [
        Alcotest.test_case "basic" `Quick test_lex_basic;
        Alcotest.test_case "comments" `Quick test_lex_comments;
        Alcotest.test_case "lines" `Quick test_lex_lines;
        Alcotest.test_case "errors" `Quick test_lex_errors;
        Alcotest.test_case "token streams pinned" `Quick test_lex_pinned;
      ] );
    ( "parser",
      [
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "unary/postfix" `Quick test_parse_unary_postfix;
        Alcotest.test_case "assignment" `Quick test_parse_assign;
        Alcotest.test_case "program" `Quick test_parse_program;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "error lines" `Quick test_frontend_error_lines;
      ] );
    ( "sema",
      [
        Alcotest.test_case "accepts valid" `Quick test_sema_ok;
        Alcotest.test_case "rejects invalid" `Quick test_sema_errors;
        Alcotest.test_case "shadowing" `Quick test_sema_shadowing;
        Alcotest.test_case "struct layout" `Quick test_sema_struct_layout;
        Alcotest.test_case "recursive struct" `Quick
          test_sema_recursive_struct_by_value;
      ] );
    ( "exec",
      [
        Alcotest.test_case "arithmetic" `Quick test_exec_arith;
        Alcotest.test_case "floats" `Quick test_exec_float;
        Alcotest.test_case "control flow" `Quick test_exec_control;
        Alcotest.test_case "short circuit" `Quick test_exec_short_circuit;
        Alcotest.test_case "switch" `Quick test_exec_switch;
        Alcotest.test_case "pointers" `Quick test_exec_pointers;
        Alcotest.test_case "structs" `Quick test_exec_structs;
        Alcotest.test_case "heap" `Quick test_exec_heap;
        Alcotest.test_case "recursion" `Quick test_exec_recursion;
        Alcotest.test_case "many args" `Quick test_exec_many_args;
        Alcotest.test_case "globals" `Quick test_exec_globals;
        Alcotest.test_case "read builtins" `Quick test_exec_read;
        Alcotest.test_case "ternary" `Quick test_exec_ternary;
        Alcotest.test_case "prelude" `Quick test_exec_prelude;
        Alcotest.test_case "faults" `Quick test_exec_faults;
      ] );
    ( "peephole",
      [
        Alcotest.test_case "rewrites" `Quick test_peephole_rewrites;
        Alcotest.test_case "preserves semantics" `Quick
          test_peephole_preserves_semantics;
      ] );
    ( "properties",
      [ qcheck prop_compiler_matches_reference ] );
  ]
