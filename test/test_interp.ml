(* Differential tests: the reference AST interpreter vs the compiler +
   simulator.  For programs that never read uninitialised storage, the
   two must produce identical output checksums and consume the same
   inputs. *)

open Check

let ds ?(ints = [||]) ?(floats = [||]) () =
  Sim.Dataset.make ~floats ~name:"t" ints

let both ?ints ?floats src =
  let d = ds ?ints ?floats () in
  let compiled = Sim.Machine.run (Minic.Frontend.compile src) d in
  let interp = Minic.Interp.run src d in
  (compiled, interp)

let agree ?ints ?floats src =
  let compiled, interp = both ?ints ?floats src in
  checki "checksum agrees" compiled.checksum interp.checksum;
  checki "ints read agree" compiled.ints_read interp.ints_read;
  checki "floats read agree" compiled.floats_read interp.floats_read

(* ---- hand-written differential cases ---- *)

let test_basics () =
  agree "int main() { print(1 + 2 * 3); return 0; }";
  agree
    "int main() { int i; int s = 0; for (i = 0; i < 20; i++) { s += i * i; } \
     print(s); return 0; }";
  agree
    "int f(int n) { if (n < 2) { return n; } return f(n-1) + f(n-2); }\n\
     int main() { print(f(17)); return 0; }";
  agree ~ints:[| 5; 7 |] "int main() { print(read() * read()); return 0; }"

let test_pointer_programs () =
  agree
    {|
struct node { int v; struct node *next; };
int main() {
  struct node *head = null;
  int i;
  int s = 0;
  for (i = 0; i < 40; i++) {
    struct node *n = (struct node *)alloc(sizeof(struct node));
    n->v = i * 7;
    n->next = head;
    head = n;
  }
  while (head != null) {
    s += head->v;
    head = head->next;
  }
  print(s);
  return 0;
}
|};
  agree
    {|
int main() {
  int a[32];
  int *p;
  int i;
  for (i = 0; i < 32; i++) { a[i] = i * i; }
  p = a + 5;
  print(*p);
  print(p[3]);
  print(p - a);
  *p = 99;
  print(a[5]);
  return 0;
}
|}

let test_float_programs () =
  agree
    {|
int main() {
  float acc = 0.0;
  int i;
  for (i = 0; i < 50; i++) {
    acc = acc + 0.125 * (float)i;
    if (acc > 20.0) {
      acc = acc - fabs(acc) * 0.5;
    }
  }
  print(acc);
  print((int)acc);
  return 0;
}
|};
  agree ~floats:[| 0.25; 0.75 |]
    "int main() { print(readf() + readf()); return 0; }"

let test_switch_and_shortcircuit () =
  agree
    {|
int calls = 0;
int bump() { calls++; return 1; }
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 12; i++) {
    switch (i % 4) {
      case 0: s += 1; break;
      case 1: case 2: s += 10; break;
      default: s += 100;
    }
    if (i > 5 && bump() == 1) { s += 1000; }
  }
  print(s);
  print(calls);
  return 0;
}
|}

let test_globals_and_prelude () =
  agree
    {|
int counter = 5;
int table[8];
int main() {
  int i;
  fill(table, 3, 8);
  for (i = 0; i < 8; i++) { counter += table[i]; }
  srand_(99);
  print(counter);
  print(rand_() & 1023);
  print(imax(iabs(-4), imin(2, 9)));
  return 0;
}
|}

let test_faults_mirror () =
  let expect_both_fault src =
    let d = ds () in
    let machine_faulted =
      try
        ignore (Sim.Machine.run (Minic.Frontend.compile src) d);
        false
      with Sim.Machine.Fault _ -> true
    in
    let interp_faulted =
      try
        ignore (Minic.Interp.run src d);
        false
      with Minic.Interp.Fault _ -> true
    in
    checkb ("machine faults: " ^ src) true machine_faulted;
    checkb ("interp faults: " ^ src) true interp_faulted
  in
  expect_both_fault "int main() { int x = 0; print(3 / x); return 0; }";
  expect_both_fault "int main() { int *p = (int *)(0 - 9); print(*p); return 0; }"

(* Run the interpreter on a real workload and compare end to end. *)
let test_workload_xlisp () =
  let wl = Workloads.Registry.find "xlisp" in
  let d = Workloads.Workload.primary_dataset wl in
  let compiled = Sim.Machine.run (Workloads.Workload.compile wl) d in
  let interp =
    Minic.Interp.run ~max_steps:400_000_000 wl.source d
  in
  checki "xlisp checksum" compiled.checksum interp.checksum

(* ---- random-program differential property ---- *)

(* A structured generator that only produces initialised, fault-free,
   terminating programs: expressions over four scalar variables and a
   16-slot global array (indices masked), statements including nested
   ifs, bounded for loops, masked array writes, and prints. *)

type gexpr =
  | GC of int
  | GV of int                 (* v0..v3 *)
  | GA of gexpr               (* ga[(e) & 15] *)
  | GB of string * gexpr * gexpr
  | GTern of gexpr * gexpr * gexpr

type gstmt =
  | SAssign of int * gexpr
  | SArr of gexpr * gexpr
  | SPrint of gexpr
  | SIf of gexpr * gstmt list * gstmt list
  | SFor of int * gstmt list  (* bounded loop with a reserved counter *)

let rec pe = function
  | GC n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | GV i -> Printf.sprintf "v%d" i
  | GA e -> Printf.sprintf "ga[(%s) & 15]" (pe e)
  | GB (op, a, b) -> begin
    match op with
    | "/" | "%" ->
      Printf.sprintf "((%s) %s (((%s) == 0) ? 1 : (%s)))" (pe a) op (pe b)
        (pe b)
    | "<<" | ">>" -> Printf.sprintf "((%s) %s ((%s) & 7))" (pe a) op (pe b)
    | _ -> Printf.sprintf "((%s) %s (%s))" (pe a) op (pe b)
  end
  | GTern (c, a, b) ->
    Printf.sprintf "((%s) ? (%s) : (%s))" (pe c) (pe a) (pe b)

let rec ps depth = function
  | SAssign (i, e) -> Printf.sprintf "v%d = %s;" i (pe e)
  | SArr (i, e) -> Printf.sprintf "ga[(%s) & 15] = %s;" (pe i) (pe e)
  | SPrint e -> Printf.sprintf "print(%s);" (pe e)
  | SIf (c, a, b) ->
    Printf.sprintf "if (%s) { %s } else { %s }" (pe c)
      (String.concat " " (List.map (ps depth) a))
      (String.concat " " (List.map (ps depth) b))
  | SFor (k, body) ->
    let l = Printf.sprintf "l%d" depth in
    Printf.sprintf "for (%s = 0; %s < %d; %s++) { %s }" l l k l
      (String.concat " " (List.map (ps (depth + 1)) body))

let program_of stmts =
  Printf.sprintf
    {|
int ga[16];
int main() {
  int v0 = 3;
  int v1 = -7;
  int v2 = 11;
  int v3 = 0;
  int l0;
  int l1;
  int l2;
  int i;
  for (i = 0; i < 16; i++) { ga[i] = i * 5 - 20; }
  %s
  print(v0); print(v1); print(v2); print(v3);
  for (i = 0; i < 16; i++) { print(ga[i]); }
  return 0;
}
|}
    (String.concat "\n  " (List.map (ps 0) stmts))

let gen_program =
  let open QCheck.Gen in
  let op =
    oneofl [ "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "<<"; ">>";
             "<"; "<="; ">"; ">="; "=="; "!="; "&&"; "||" ]
  in
  let rec expr depth st =
    if depth <= 0 then
      (oneof [ map (fun n -> GC n) (int_range (-30) 30);
               map (fun i -> GV i) (int_range 0 3) ])
        st
    else
      (frequency
         [
           (2, map (fun n -> GC n) (int_range (-30) 30));
           (2, map (fun i -> GV i) (int_range 0 3));
           (1, map (fun e -> GA e) (expr (depth - 1)));
           (3, map3 (fun o a b -> GB (o, a, b)) op (expr (depth - 1))
                 (expr (depth - 1)));
           (1, map3 (fun c a b -> GTern (c, a, b)) (expr (depth - 1))
                 (expr (depth - 1)) (expr (depth - 1)));
         ])
        st
  in
  let rec stmt depth st =
    (frequency
       [
         (4, map2 (fun i e -> SAssign (i, e)) (int_range 0 3) (expr 3));
         (2, map2 (fun i e -> SArr (i, e)) (expr 2) (expr 3));
         (2, map (fun e -> SPrint e) (expr 3));
         ( (if depth > 0 then 2 else 0),
           map3 (fun c a b -> SIf (c, a, b)) (expr 2) (stmts (depth - 1))
             (stmts (depth - 1)) );
         ( (if depth > 0 then 2 else 0),
           map2 (fun k body -> SFor (k, body)) (int_range 1 6)
             (stmts (depth - 1)) );
       ])
      st
  and stmts depth st = (list_size (int_range 1 4) (stmt depth)) st in
  stmts 2

let arb_program =
  QCheck.make gen_program ~print:(fun stmts -> program_of stmts)

let prop_interp_matches_machine =
  QCheck.Test.make
    ~name:"interpreter and compiled code agree on random programs" ~count:60
    arb_program (fun stmts ->
      let src = program_of stmts in
      let d = ds () in
      let compiled = Sim.Machine.run (Minic.Frontend.compile src) d in
      let interp = Minic.Interp.run src d in
      compiled.checksum = interp.checksum)

let tests =
  [
    ( "differential",
      [
        Alcotest.test_case "basics" `Quick test_basics;
        Alcotest.test_case "pointers" `Quick test_pointer_programs;
        Alcotest.test_case "floats" `Quick test_float_programs;
        Alcotest.test_case "switch + &&" `Quick test_switch_and_shortcircuit;
        Alcotest.test_case "globals + prelude" `Quick
          test_globals_and_prelude;
        Alcotest.test_case "faults mirror" `Quick test_faults_mirror;
        Alcotest.test_case "xlisp end to end" `Slow test_workload_xlisp;
      ] );
    ( "properties",
      [ qcheck prop_interp_matches_machine ] );
  ]
