(* Abstract syntax of MiniC, the small C-like language the synthetic
   workloads are written in.

   MiniC is deliberately close to the C subset the paper's benchmarks
   exercise: ints, doubles ("float" here), pointers, one-dimensional
   arrays, structs accessed through pointers, functions with
   recursion, short-circuit conditions, [switch] (compiled to a jump
   table), and the usual loop forms.  Everything is word-sized. *)

type ty =
  | Tint
  | Tfloat
  | Tvoid
  | Tptr of ty
  | Tstruct of string
  | Tarray of ty * int  (* decays to pointer in expressions *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr | Band | Bor | Bxor
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor  (* short-circuit *)

type unop = Neg | Not | Bnot

(* Expressions carry the source line for error reporting. *)
type expr = { e : expr_node; line : int }

and expr_node =
  | Int_lit of int
  | Float_lit of float
  | Null
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Assign of expr * expr           (* lvalue = expr *)
  | Cond of expr * expr * expr      (* c ? a : b *)
  | Call of string * expr list
  | Index of expr * expr            (* a[i] *)
  | Deref of expr                   (* *p *)
  | Addr of expr                    (* &lvalue *)
  | Arrow of expr * string          (* p->f *)
  | Dot of expr * string            (* s.f, s an lvalue of struct type *)
  | Cast of ty * expr
  | Sizeof of ty

type stmt = { s : stmt_node; sline : int }

and stmt_node =
  | Expr of expr
  | Decl of ty * string * expr option
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | For of expr option * expr option * expr option * stmt list
  | Switch of expr * (int list * stmt list) list * stmt list
    (* cases with fall-through not supported: each case body is
       closed; the final component is the default body *)
  | Return of expr option
  | Break
  | Continue
  | Block of stmt list
  | Print of expr
  | Halt_stmt

type param = ty * string

(* Declarations carry the line of their first token, for the errors
   sema reports about a declaration as a whole. *)
type decl = { d : decl_node; dline : int }

and decl_node =
  | Struct_def of string * (ty * string) list
  | Global of ty * string * expr option
  | Func of ty * string * param list * stmt list

type program = decl list

let rec ty_to_string = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tvoid -> "void"
  | Tptr t -> ty_to_string t ^ "*"
  | Tstruct s -> "struct " ^ s
  | Tarray (t, n) -> Printf.sprintf "%s[%d]" (ty_to_string t) n

let is_arith = function Tint | Tfloat -> true | _ -> false
let is_ptr = function Tptr _ | Tarray _ -> true | _ -> false

let rec ty_equal a b =
  match a, b with
  | Tint, Tint | Tfloat, Tfloat | Tvoid, Tvoid -> true
  | Tptr x, Tptr y -> ty_equal x y
  | Tstruct x, Tstruct y -> String.equal x y
  | Tarray (x, n), Tarray (y, m) -> n = m && ty_equal x y
  | (Tint | Tfloat | Tvoid | Tptr _ | Tstruct _ | Tarray _), _ -> false
