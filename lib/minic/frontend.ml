exception Error of string

let prelude =
  {|
/* MiniC runtime: the "libc" analysed along with every program. */

int __heap_ptr = 0;
int __rand_state = 123456789;

int *alloc(int nwords) {
  int p;
  if (nwords <= 0) {
    nwords = 1;
  }
  p = __heap_ptr;
  __heap_ptr = __heap_ptr + nwords;
  return (int *)p;
}

int iabs(int x) {
  if (x < 0) {
    return -x;
  }
  return x;
}

int imin(int a, int b) {
  if (a < b) {
    return a;
  }
  return b;
}

int imax(int a, int b) {
  if (a > b) {
    return a;
  }
  return b;
}

float fabs_(float x) {
  return fabs(x);
}

void fill(int *p, int v, int n) {
  int i;
  for (i = 0; i < n; i++) {
    p[i] = v;
  }
}

void copy(int *dst, int *src, int n) {
  int i;
  for (i = 0; i < n; i++) {
    dst[i] = src[i];
  }
}

void srand_(int s) {
  if (s == 0) {
    s = 1;
  }
  __rand_state = s;
}

int rand_() {
  __rand_state = (__rand_state * 1103515245 + 12345) & 0x3FFFFFFF;
  return (__rand_state >> 8) & 0xFFFFF;
}
|}

(* [where line] names a line for the message; line 0 is sema's mark
   for a missing [main], which has none. *)
let check_as ~where src =
  let fail phase line msg =
    raise
      (Error
         (if line <= 0 then Printf.sprintf "%s error: %s" phase msg
          else Printf.sprintf "%s error, %s: %s" phase (where line) msg))
  in
  try Sema.check (Parser.parse src) with
  | Lexer.Error (line, msg) -> fail "lex" line msg
  | Parser.Error (line, msg) -> fail "parse" line msg
  | Sema.Error (line, msg) -> fail "type" line msg

let parse_and_check = check_as ~where:(Printf.sprintf "line %d")

(* The prelude and the newline joining it to the program take this
   many lines, so line [l] of the joined text is the program's line
   [l - prelude_lines]. *)
let prelude_lines =
  1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 prelude

let check_with_prelude src =
  check_as (prelude ^ "\n" ^ src) ~where:(fun line ->
      if line <= prelude_lines then Printf.sprintf "prelude line %d" line
      else Printf.sprintf "line %d" (line - prelude_lines))

let initial_idata (c : Sema.checked) =
  let g = Hashtbl.find c.globals "__heap_ptr" in
  c.idata @ [ (g.gaddr, Mips.Program.heap_base) ]

let compile ?(optimize = true) src =
  let checked = check_with_prelude src in
  if Mips.Program.gp_base + checked.globals_words > Mips.Program.heap_base then
    raise
      (Error
         (Printf.sprintf "static data (%d words) collides with the heap"
            checked.globals_words));
  let procs =
    try Codegen.gen_program checked with
    | Codegen.Error msg -> raise (Error (Printf.sprintf "codegen error: %s" msg))
  in
  let procs =
    if optimize then
      List.map (fun (name, items) -> (name, Peephole.optimize items)) procs
    else procs
  in
  try
    Mips.Program.make ~idata:(initial_idata checked) ~fdata:checked.fdata
      ~entry:"main" procs
  with
  | Mips.Asm.Unknown_label l ->
    raise (Error (Printf.sprintf "assembler: unknown label %s" l))
  | Mips.Asm.Duplicate_label l ->
    raise (Error (Printf.sprintf "assembler: duplicate label %s" l))
  | Mips.Program.Unknown_procedure p ->
    raise (Error (Printf.sprintf "linker: unknown procedure %s" p))
