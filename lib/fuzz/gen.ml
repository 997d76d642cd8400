(* Typed growth of random MiniC programs.  See gen.mli for the safety
   invariants; every site that enforces one is marked "inv:". *)

type iexpr =
  | Ci of int
  | Gv of int
  | Lv of string
  | Arr of iexpr
  | Hp of iexpr
  | Deref of int
  | Un of string * iexpr
  | Bin of string * iexpr * iexpr
  | Tern of iexpr * iexpr * iexpr
  | CallE of int * iexpr list
  | Fcmpi of string * fexpr * fexpr
  | Pcmp of string * pexpr * pexpr

and fexpr =
  | Cf of float
  | Fg
  | Flv of string
  | Fbin of char * fexpr * fexpr
  | Fdivc of fexpr * float
  | Foi of iexpr

and pexpr = Pnull | Pv of int | Pga of iexpr

type ilhs = LGv of int | LLv of string | LArr of iexpr | LHp of iexpr | LDeref of int

type stmt =
  | Iassign of ilhs * string * iexpr
  | Fassign of bool * fexpr
  | Passign of int * pexpr
  | If of iexpr * stmt list * stmt list
  | For of string * int * stmt list
  | While of string * int * stmt list
  | DoWhile of string * int * stmt list
  | Switch of iexpr * (int * stmt list) list * stmt list
  | SPrint of iexpr
  | SPrintF of fexpr
  | SCall of int * iexpr list
  | Ret of iexpr
  | Break
  | Continue

type func = { arity : int; body : stmt list; ret : iexpr }
type program = { helpers : func array; main_body : stmt list }

(* ---- deterministic rng (splitmix-style) ---- *)

type rng = { mutable s : int }

let mix z =
  let z = (z lxor (z lsr 30)) * 0x0F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let next r =
  r.s <- r.s + 0x1E3779B97F4A7C15;
  mix r.s

let rint r n = if n <= 0 then 0 else (next r land max_int) mod n

let pick r l = List.nth l (rint r (List.length l))

(* weighted pick over (weight, value) *)
let wpick r l =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 l in
  let n = rint r total in
  let rec go acc = function
    | [] -> snd (List.hd l)
    | (w, v) :: rest -> if n < acc + w then v else go (acc + w) rest
  in
  go 0 l

let case_seed ~seed ~index = mix ((seed * 0x9E3779B9) lxor (index * 0x85EBCA6B))

(* ---- generation environment ---- *)

type env = {
  rng : rng;
  ivars : string list;         (* assignable int names in scope *)
  ro : string list;            (* live loop counters: readable only (inv: termination) *)
  callable : (int * int) list; (* (helper index, arity), callees only (inv: acyclic) *)
  in_helper : bool;            (* Ret allowed *)
  loop_ok : bool;              (* Break/Continue allowed (inv: not under switch) *)
  depth : int;                 (* loop nesting, bounds counter names l0..l2 *)
  budget : int ref;
}

let float_consts = [ 0.25; 0.5; 0.75; 1.25; 1.5; 2.0; 2.5; 3.0 ]

let arith_ops =
  [ (4, "+"); (4, "-"); (3, "*"); (2, "/"); (2, "%"); (2, "&"); (2, "|");
    (2, "^"); (1, "<<"); (1, ">>") ]

let cmp_ops = [ "<"; "<="; ">"; ">="; "=="; "!=" ]

(* ---- integer expressions ---- *)

let rec gen_iexpr env fuel =
  let r = env.rng in
  if fuel <= 0 then gen_leaf env
  else
    wpick r
      [
        (3, `Leaf);
        (6, `Bin);
        (1, `Un);
        (2, `Mem);
        (1, `Tern);
        (1, `Cmp0);
        ((if env.callable <> [] then 2 else 0), `Call);
        (1, `Fcmp);
        (1, `Pcmp);
      ]
    |> function
    | `Leaf -> gen_leaf env
    | `Bin ->
      let op = wpick r arith_ops in
      Bin (op, gen_iexpr env (fuel - 1), gen_iexpr env (fuel - 1))
    | `Un -> Un (pick r [ "-"; "!"; "~" ], gen_iexpr env (fuel - 1))
    | `Mem ->
      if rint r 2 = 0 then Arr (gen_iexpr env (fuel - 1))
      else if rint r 2 = 0 then Hp (gen_iexpr env (fuel - 1))
      else Deref (rint r 2)
    | `Tern ->
      Tern (gen_cond env (fuel - 1), gen_iexpr env (fuel - 1),
            gen_iexpr env (fuel - 1))
    | `Cmp0 ->
      (* comparisons against zero: Opcode-heuristic food *)
      Bin (pick r cmp_ops, gen_iexpr env (fuel - 1), Ci 0)
    | `Call -> gen_call env fuel
    | `Fcmp ->
      Fcmpi (pick r [ "=="; "!="; "<"; ">" ], gen_fexpr env (fuel - 1),
             gen_fexpr env (fuel - 1))
    | `Pcmp ->
      Pcmp (pick r [ "=="; "!=" ], gen_pexpr env (fuel - 1),
            gen_pexpr env (fuel - 1))

and gen_leaf env =
  let r = env.rng in
  wpick r
    [
      (3, `Const);
      (3, `Global);
      ((if env.ivars <> [] then 3 else 0), `Local);
      ((if env.ro <> [] then 2 else 0), `Counter);
    ]
  |> function
  | `Const -> Ci (rint r 61 - 30)
  | `Global -> Gv (rint r 4)
  | `Local -> Lv (pick r env.ivars)
  | `Counter -> Lv (pick r env.ro)

and gen_call env fuel =
  let idx, arity = pick env.rng env.callable in
  CallE (idx, List.init arity (fun _ -> gen_iexpr env (min 1 (fuel - 1))))

and gen_fexpr env fuel =
  let r = env.rng in
  if fuel <= 0 then
    wpick r [ (2, `C); (2, `G); (2, `L) ]
    |> function
    | `C -> Cf (pick r float_consts)
    | `G -> Fg
    | `L -> Flv "f0"
  else
    wpick r [ (2, `C); (2, `G); (2, `L); (3, `Bin); (1, `Div); (2, `OfI) ]
    |> function
    | `C -> Cf (pick r float_consts)
    | `G -> Fg
    | `L -> Flv "f0"
    | `Bin ->
      Fbin (pick r [ '+'; '-'; '*' ], gen_fexpr env (fuel - 1),
            gen_fexpr env (fuel - 1))
    | `Div ->
      (* inv: fault-free — float division only by non-zero constants *)
      Fdivc (gen_fexpr env (fuel - 1), pick r float_consts)
    | `OfI -> Foi (gen_iexpr env (fuel - 1))

and gen_pexpr env fuel =
  let r = env.rng in
  wpick r [ (2, `Null); (3, `Var); (3, `Ga) ]
  |> function
  | `Null -> Pnull
  | `Var -> Pv (rint r 2)
  | `Ga -> Pga (gen_iexpr env (max 0 (fuel - 1)))

(* conditions: biased toward the shapes the heuristics recognise *)
and gen_cond env fuel =
  let r = env.rng in
  wpick r [ (3, `Zero); (3, `Cmp); (1, `Guard); (1, `Fcmp); (1, `Pcmp); (1, `Any) ]
  |> function
  | `Zero -> Bin (pick r cmp_ops, gen_iexpr env fuel, Ci 0)
  | `Cmp -> Bin (pick r cmp_ops, gen_iexpr env fuel, gen_iexpr env fuel)
  | `Guard when env.ivars <> [] -> Bin ("!=", Lv (pick r env.ivars), Ci 0)
  | `Guard -> Bin ("!=", gen_leaf env, Ci 0)
  | `Fcmp ->
    Fcmpi (pick r [ "=="; "!="; "<"; ">=" ], gen_fexpr env fuel,
           gen_fexpr env fuel)
  | `Pcmp ->
    Pcmp (pick r [ "=="; "!=" ], gen_pexpr env fuel, gen_pexpr env fuel)
  | `Any -> gen_iexpr env fuel

(* ---- statements ---- *)

let gen_ilhs env =
  let r = env.rng in
  wpick r
    [
      (3, `Global);
      ((if env.ivars <> [] then 4 else 0), `Local);
      (2, `Arr);
      (1, `Hp);
      (1, `Deref);
    ]
  |> function
  | `Global -> LGv (rint r 4)
  | `Local -> LLv (pick r env.ivars)
  | `Arr -> LArr (gen_iexpr env 1)
  | `Hp -> LHp (gen_iexpr env 1)
  | `Deref -> LDeref (rint r 2)

let assign_ops = [ (6, "="); (3, "+="); (2, "-="); (2, "^="); (1, "&="); (1, "|=") ]
(* inv: fault-free — no /= or %=, a compound divisor can't be guarded *)

let rec gen_stmt env : stmt =
  let r = env.rng in
  let nested = !(env.budget) > 2 && env.depth < 3 in
  wpick r
    [
      (8, `Assign);
      (2, `FAssign);
      (2, `PAssign);
      ((if nested then 4 else 0), `If);
      ((if nested then 2 else 0), `For);
      ((if nested then 1 else 0), `While);
      ((if nested then 1 else 0), `DoWhile);
      ((if nested then 1 else 0), `Switch);
      (2, `Print);
      (1, `PrintF);
      ((if env.callable <> [] then 2 else 0), `Call);
      ((if env.in_helper then 1 else 0), `Ret);
      ((if env.loop_ok then 1 else 0), `BreakCont);
    ]
  |> fun kind ->
  decr env.budget;
  match kind with
  | `Assign -> Iassign (gen_ilhs env, wpick r assign_ops, gen_iexpr env 3)
  | `FAssign -> Fassign (rint r 2 = 0, gen_fexpr env 2)
  | `PAssign -> Passign (rint r 2, gen_pexpr env 2)
  | `If ->
    let cond = gen_cond env 2 in
    let then_ = gen_stmts env (1 + rint r 3) in
    let else_ = if rint r 3 = 0 then gen_stmts env (1 + rint r 2) else [] in
    If (cond, then_, else_)
  | `For ->
    let v = Printf.sprintf "l%d" env.depth in
    let body =
      gen_stmts
        { env with ro = v :: env.ro; loop_ok = true; depth = env.depth + 1 }
        (1 + rint r 3)
    in
    For (v, 2 + rint r 10, body)
  | `While ->
    let v = Printf.sprintf "l%d" env.depth in
    let body =
      gen_stmts
        { env with ro = v :: env.ro; loop_ok = true; depth = env.depth + 1 }
        (1 + rint r 3)
    in
    While (v, 2 + rint r 8, body)
  | `DoWhile ->
    let v = Printf.sprintf "l%d" env.depth in
    let body =
      gen_stmts
        { env with ro = v :: env.ro; loop_ok = true; depth = env.depth + 1 }
        (1 + rint r 2)
    in
    DoWhile (v, 1 + rint r 6, body)
  | `Switch ->
    (* inv: Break under a switch case would be ambiguous — forbid *)
    let cenv = { env with loop_ok = false } in
    let ncases = 1 + rint r 3 in
    let cases =
      List.init ncases (fun i -> (i, gen_stmts cenv (1 + rint r 2)))
    in
    Switch (gen_iexpr env 2, cases, gen_stmts cenv (1 + rint r 2))
  | `Print -> SPrint (gen_iexpr env 3)
  | `PrintF -> SPrintF (gen_fexpr env 2)
  | `Call ->
    let idx, arity = pick r env.callable in
    SCall (idx, List.init arity (fun _ -> gen_iexpr env 2))
  | `Ret -> Ret (gen_iexpr env 2)
  | `BreakCont -> if rint r 2 = 0 then Break else Continue

and gen_stmts env n =
  let n = min n (max 1 !(env.budget)) in
  List.init n (fun _ -> gen_stmt env)

(* ---- whole programs ---- *)

let base_env rng budget ~callable ~in_helper ~extra_ivars =
  {
    rng;
    ivars = extra_ivars @ [ "x0"; "x1"; "x2" ];
    ro = [];
    callable;
    in_helper;
    loop_ok = false;
    depth = 0;
    budget;
  }

let generate ~seed ~size =
  let rng = { s = mix (seed lxor 0x5DEECE66D) } in
  let nhelpers = if size < 8 then 0 else 1 + rint rng 3 in
  let arities = Array.init nhelpers (fun _ -> 1 + rint rng 3) in
  let callable_from i =
    (* inv: acyclic call graph — helper i calls only j > i *)
    List.init (nhelpers - i - 1) (fun k ->
        let j = i + 1 + k in
        (j, arities.(j)))
  in
  let helper_budget = size * 2 / 5 / max 1 nhelpers in
  let helpers =
    Array.init nhelpers (fun i ->
        let params = List.init arities.(i) (Printf.sprintf "a%d") in
        let env =
          base_env rng
            (ref (max 2 helper_budget))
            ~callable:(callable_from i) ~in_helper:true ~extra_ivars:params
        in
        let body = gen_stmts env (max 2 helper_budget) in
        { arity = arities.(i); body; ret = gen_iexpr env 2 })
  in
  let env =
    base_env rng
      (ref (max 3 (size * 3 / 5)))
      ~callable:(List.init nhelpers (fun j -> (j, arities.(j))))
      ~in_helper:false ~extra_ivars:[]
  in
  let main_body = gen_stmts env (max 3 (size * 3 / 5)) in
  { helpers; main_body }

(* ---- printing ---- *)

let rec has_call = function
  | CallE _ -> true
  | Ci _ | Gv _ | Lv _ | Deref _ -> false
  | Arr e | Hp e | Un (_, e) -> has_call e
  | Bin (_, a, b) -> has_call a || has_call b
  | Tern (c, a, b) -> has_call c || has_call a || has_call b
  | Fcmpi (_, a, b) -> f_has_call a || f_has_call b
  | Pcmp (_, a, b) -> p_has_call a || p_has_call b

and f_has_call = function
  | Cf _ | Fg | Flv _ -> false
  | Fbin (_, a, b) -> f_has_call a || f_has_call b
  | Fdivc (a, _) -> f_has_call a
  | Foi e -> has_call e

and p_has_call = function Pnull | Pv _ -> false | Pga e -> has_call e

let rec pi = function
  | Ci n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Gv i -> Printf.sprintf "g%d" i
  | Lv v -> v
  | Arr e -> Printf.sprintf "ga[(%s) & 15]" (pi e)
  | Hp e -> Printf.sprintf "hp[(%s) & 7]" (pi e)
  | Deref i -> Printf.sprintf "(*p%d)" i
  | Un ("-", e) -> Printf.sprintf "(0 - (%s))" (pi e)
  | Un (op, e) -> Printf.sprintf "(%s(%s))" op (pi e)
  | Bin (("/" | "%") as op, a, b) when has_call b ->
    (* inv: fault-free division.  The divisor is evaluated once: tested
       for zero and then evaluated again, its second call could read
       what the first one changed and return zero. *)
    Printf.sprintf "((%s) %s ((%s) | 1))" (pi a) op (pi b)
  | Bin (("/" | "%") as op, a, b) ->
    (* inv: fault-free division *)
    Printf.sprintf "((%s) %s (((%s) == 0) ? 1 : (%s)))" (pi a) op (pi b) (pi b)
  | Bin (("<<" | ">>") as op, a, b) ->
    (* inv: bounded shift *)
    Printf.sprintf "((%s) %s ((%s) & 7))" (pi a) op (pi b)
  | Bin (op, a, b) -> Printf.sprintf "((%s) %s (%s))" (pi a) op (pi b)
  | Tern (c, a, b) -> Printf.sprintf "((%s) ? (%s) : (%s))" (pi c) (pi a) (pi b)
  | CallE (i, args) ->
    Printf.sprintf "h%d(%s)" i (String.concat ", " (List.map pi args))
  | Fcmpi (op, a, b) -> Printf.sprintf "((%s) %s (%s))" (pf a) op (pf b)
  | Pcmp (op, a, b) -> Printf.sprintf "((%s) %s (%s))" (pp_ a) op (pp_ b)

and pf = function
  | Cf c -> Printf.sprintf "%.4f" c
  | Fg -> "gf"
  | Flv v -> v
  | Fbin (op, a, b) -> Printf.sprintf "((%s) %c (%s))" (pf a) op (pf b)
  | Fdivc (a, c) -> Printf.sprintf "((%s) / %.4f)" (pf a) c
  | Foi e -> Printf.sprintf "((float)(%s))" (pi e)

and pp_ = function
  | Pnull -> "null"
  | Pv i -> Printf.sprintf "p%d" i
  | Pga e -> Printf.sprintf "(ga + ((%s) & 15))" (pi e)

let plhs = function
  | LGv i -> Printf.sprintf "g%d" i
  | LLv v -> v
  | LArr e -> Printf.sprintf "ga[(%s) & 15]" (pi e)
  | LHp e -> Printf.sprintf "hp[(%s) & 7]" (pi e)
  | LDeref i -> Printf.sprintf "*p%d" i

let rec ps buf ind (s : stmt) =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (ind ^ s ^ "\n")) fmt in
  let block stmts ind' = List.iter (ps buf ind') stmts in
  match s with
  | Iassign (l, op, e) -> line "%s %s %s;" (plhs l) op (pi e)
  | Fassign (glob, e) -> line "%s = %s;" (if glob then "gf" else "f0") (pf e)
  | Passign (i, p) -> line "p%d = %s;" i (pp_ p)
  | If (c, t, []) ->
    line "if (%s) {" (pi c);
    block t (ind ^ "  ");
    line "}"
  | If (c, t, e) ->
    line "if (%s) {" (pi c);
    block t (ind ^ "  ");
    line "} else {";
    block e (ind ^ "  ");
    line "}"
  | For (v, k, body) ->
    line "for (%s = 0; %s < %d; %s++) {" v v k v;
    block body (ind ^ "  ");
    line "}"
  | While (v, k, body) ->
    (* inv: termination — countdown first, so continue can't skip it *)
    line "%s = %d;" v k;
    line "while (%s > 0) {" v;
    line "  %s = %s - 1;" v v;
    block body (ind ^ "  ");
    line "}"
  | DoWhile (v, k, body) ->
    line "%s = %d;" v k;
    line "do {";
    line "  %s = %s - 1;" v v;
    block body (ind ^ "  ");
    line "} while (%s > 0);" v
  | Switch (e, cases, dflt) ->
    line "switch ((%s) & 3) {" (pi e);
    List.iter
      (fun (v, body) ->
        line "  case %d:" v;
        block body (ind ^ "    ");
        line "    break;")
      cases;
    line "  default:";
    block dflt (ind ^ "    ");
    line "}"
  | SPrint e -> line "print(%s);" (pi e)
  | SPrintF e -> line "print(%s);" (pf e)
  | SCall (i, args) ->
    line "h%d(%s);" i (String.concat ", " (List.map pi args))
  | Ret e -> line "return %s;" (pi e)
  | Break -> line "break;"
  | Continue -> line "continue;"

(* every function gets the same local skeleton: scratch ints, a float,
   two array pointers, and the reserved loop counters.  Packed onto
   two lines so shrunk reproducers stay short. *)
let local_decls buf ind =
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (ind ^ s ^ "\n")) fmt in
  add "int x0 = 3; int x1 = -5; int x2 = 9; float f0 = 0.5;";
  add "int *p0 = ga + 2; int *p1 = ga + 11; int l0 = 0; int l1 = 0; int l2 = 0;"

let to_source (p : program) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "int g0 = 1; int g1 = -7; int g2 = 11; int g3 = 0;";
  add "float gf = 0.5; int ga[16]; int *hp;";
  (* helper i only calls j > i, so define in reverse index order *)
  for i = Array.length p.helpers - 1 downto 0 do
    let f = p.helpers.(i) in
    let params =
      List.init f.arity (fun k -> Printf.sprintf "int a%d" k)
      |> String.concat ", "
    in
    add "int h%d(%s) {" i params;
    local_decls buf "  ";
    List.iter (ps buf "  ") f.body;
    add "  return %s;" (pi f.ret);
    add "}"
  done;
  add "int main() {";
  add "  int li = 0;";
  local_decls buf "  ";
  add "  hp = alloc(8); fill(hp, 3, 8);";
  add "  for (li = 0; li < 16; li++) { ga[li] = li * 5 - 20; }";
  List.iter (ps buf "  ") p.main_body;
  (* dump all mutable state so the checksum covers it *)
  add "  print(g0); print(g1); print(g2); print(g3); print(gf);";
  add "  print(x0); print(x1); print(x2); print(f0); print(*p0); print(*p1);";
  add "  for (li = 0; li < 16; li++) { print(ga[li]); }";
  add "  for (li = 0; li < 8; li++) { print(hp[li]); }";
  add "  return 0;";
  add "}";
  Buffer.contents buf
