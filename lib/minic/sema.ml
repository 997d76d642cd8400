open Ast

exception Error of int * string

type struct_info = {
  fields : (string * ty * int) list;
  size : int;
}

type func_info = {
  ret : ty;
  params : param list;
}

type global_info = {
  gaddr : int;
  gty : ty;
}

type local_info = {
  lty : ty;
  mutable addr_taken : bool;
  mutable uses : int;
}

type checked = {
  prog : program;
  structs : (string, struct_info) Hashtbl.t;
  globals : (string, global_info) Hashtbl.t;
  funcs : (string, func_info) Hashtbl.t;
  locals : (string, (string, local_info) Hashtbl.t) Hashtbl.t;
  globals_words : int;
  idata : (int * int) list;
  fdata : (int * float) list;
}

let builtin_names = [ "read"; "readf"; "fabs" ]

let err line fmt = Printf.ksprintf (fun m -> raise (Error (line, m))) fmt

let is_float_ty = function Tfloat -> true | _ -> false

let promote a b =
  match a, b with
  | Tfloat, (Tint | Tfloat) | Tint, Tfloat -> Tfloat
  | Tint, Tint -> Tint
  | _ -> invalid_arg "Sema.promote: non-arithmetic type"

let rec struct_size structs line = function
  | Tint | Tfloat | Tptr _ -> 1
  | Tvoid -> err line "value of type void"
  | Tstruct s -> begin
    match Hashtbl.find_opt structs s with
    | Some info -> info.size
    | None -> err line "unknown struct %s" s
  end
  | Tarray (t, n) -> n * struct_size structs line t

let sizeof c ty = struct_size c.structs 0 ty

let decay = function Tarray (t, _) -> Tptr t | t -> t

let field_info structs line sname fname =
  match Hashtbl.find_opt structs sname with
  | None -> err line "unknown struct %s" sname
  | Some info -> begin
    match List.find_opt (fun (n, _, _) -> String.equal n fname) info.fields with
    | Some (_, fty, off) -> (fty, off)
    | None -> err line "struct %s has no field %s" sname fname
  end

(* --- typing (shared between checking and codegen) ------------------- *)

let lookup_local c fname x =
  match Hashtbl.find_opt c.locals fname with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl x

let var_ty c fname line x =
  match lookup_local c fname x with
  | Some li -> li.lty
  | None -> begin
    match Hashtbl.find_opt c.globals x with
    | Some g -> g.gty
    | None -> err line "unknown variable %s" x
  end

(* Type of an expression, post array decay.  Assumes the expression
   already passed checking; used by the code generator. *)
let rec ty_of c ~fname (e : expr) =
  let line = e.line in
  match e.e with
  | Int_lit _ -> Tint
  | Float_lit _ -> Tfloat
  | Null -> Tptr Tvoid
  | Var x -> decay (var_ty c fname line x)
  | Sizeof _ -> Tint
  | Cast (t, _) -> decay t
  | Addr lv -> Tptr (lvalue_ty c ~fname lv)
  | Deref p -> begin
    match ty_of c ~fname p with
    | Tptr t -> decay t
    | t -> err line "dereference of non-pointer %s" (ty_to_string t)
  end
  | Index (a, _) -> begin
    match ty_of c ~fname a with
    | Tptr t -> decay t
    | t -> err line "indexing non-pointer %s" (ty_to_string t)
  end
  | Arrow (p, f) -> begin
    match ty_of c ~fname p with
    | Tptr (Tstruct s) -> decay (fst (field_info c.structs line s f))
    | t -> err line "-> applied to %s" (ty_to_string t)
  end
  | Dot (s, f) -> begin
    match lvalue_ty c ~fname s with
    | Tstruct sn -> decay (fst (field_info c.structs line sn f))
    | t -> err line ". applied to %s" (ty_to_string t)
  end
  | Assign (lv, _) -> decay (lvalue_ty c ~fname lv)
  | Cond (_, a, b) -> begin
    let ta = ty_of c ~fname a and tb = ty_of c ~fname b in
    if ty_equal ta tb then ta
    else if is_arith ta && is_arith tb then promote ta tb
    else if is_ptr ta then ta
    else tb
  end
  | Call (f, _) ->
    if String.equal f "read" then Tint
    else if String.equal f "readf" then Tfloat
    else if String.equal f "fabs" then Tfloat
    else begin
      match Hashtbl.find_opt c.funcs f with
      | Some fi -> decay fi.ret
      | None -> err line "unknown function %s" f
    end
  | Unop (Neg, a) -> ty_of c ~fname a
  | Unop ((Not | Bnot), _) -> Tint
  | Binop (op, a, b) -> begin
    let ta = ty_of c ~fname a and tb = ty_of c ~fname b in
    match op with
    | Lt | Le | Gt | Ge | Eq | Ne | Land | Lor -> Tint
    | Mod | Shl | Shr | Band | Bor | Bxor -> Tint
    | Add | Sub | Mul | Div -> begin
      match ta, tb with
      | Tptr _, Tptr _ -> Tint (* pointer difference *)
      | Tptr _, _ -> ta
      | _, Tptr _ -> tb
      | _ -> promote ta tb
    end
  end

(* Non-decayed type of an lvalue expression. *)
and lvalue_ty c ~fname (e : expr) =
  let line = e.line in
  match e.e with
  | Var x -> var_ty c fname line x
  | Deref p -> begin
    match ty_of c ~fname p with
    | Tptr t -> t
    | t -> err line "dereference of non-pointer %s" (ty_to_string t)
  end
  | Index (a, _) -> begin
    match ty_of c ~fname a with
    | Tptr t -> t
    | t -> err line "indexing non-pointer %s" (ty_to_string t)
  end
  | Arrow (p, f) -> begin
    match ty_of c ~fname p with
    | Tptr (Tstruct s) -> fst (field_info c.structs line s f)
    | t -> err line "-> applied to %s" (ty_to_string t)
  end
  | Dot (s, f) -> begin
    match lvalue_ty c ~fname s with
    | Tstruct sn -> fst (field_info c.structs line sn f)
    | t -> err line ". applied to %s" (ty_to_string t)
  end
  | _ -> err line "expression is not an lvalue"

(* --- constant evaluation for global initialisers -------------------- *)

type const = Cint of int | Cfloat of float

let rec const_eval structs (e : expr) =
  match e.e with
  | Int_lit n -> Cint n
  | Float_lit f -> Cfloat f
  | Null -> Cint 0
  | Unop (Neg, a) -> begin
    match const_eval structs a with
    | Cint n -> Cint (-n)
    | Cfloat f -> Cfloat (-.f)
  end
  | Sizeof t -> Cint (struct_size structs e.line t)
  | Binop (op, a, b) -> begin
    match const_eval structs a, const_eval structs b, op with
    | Cint x, Cint y, Add -> Cint (x + y)
    | Cint x, Cint y, Sub -> Cint (x - y)
    | Cint x, Cint y, Mul -> Cint (x * y)
    | Cint x, Cint y, Div when y <> 0 -> Cint (x / y)
    | _ -> err e.line "global initialiser is not a constant"
  end
  | Cast (Tint, a) -> begin
    match const_eval structs a with
    | Cint n -> Cint n
    | Cfloat f -> Cint (int_of_float f)
  end
  | Cast (Tfloat, a) -> begin
    match const_eval structs a with
    | Cint n -> Cfloat (float_of_int n)
    | Cfloat f -> Cfloat f
  end
  | _ -> err e.line "global initialiser is not a constant"

(* --- the checker ---------------------------------------------------- *)

type fctx = {
  c : checked;
  fname : string;
  ret : ty;
  ltbl : (string, local_info) Hashtbl.t;
  mutable scopes : (string * string) list list;
  mutable counter : int;
  mutable loops : int;  (* nesting depth of breakable constructs *)
  mutable continues : int;  (* nesting depth of continuable loops *)
}

let fresh fx orig =
  fx.counter <- fx.counter + 1;
  Printf.sprintf "%s$%d" orig fx.counter

let resolve_var fx line x =
  let rec search = function
    | [] -> None
    | scope :: rest -> begin
      match List.assoc_opt x scope with
      | Some u -> Some u
      | None -> search rest
    end
  in
  match search fx.scopes with
  | Some u -> `Local u
  | None ->
    if Hashtbl.mem fx.c.globals x then `Global
    else err line "unknown variable %s" x

let declare_local fx line ty orig =
  (match fx.scopes with
  | scope :: _ when List.mem_assoc orig scope ->
    err line "duplicate declaration of %s" orig
  | _ -> ());
  let unique = fresh fx orig in
  (match fx.scopes with
  | scope :: rest -> fx.scopes <- ((orig, unique) :: scope) :: rest
  | [] -> assert false);
  Hashtbl.replace fx.ltbl unique { lty = ty; addr_taken = false; uses = 0 };
  unique

let scalar t = match t with Tint | Tfloat | Tptr _ -> true | _ -> false

(* May a value of type [src] be implicitly used where [dst] is
   expected? *)
let assignable structs dst src =
  ignore structs;
  match dst, src with
  | a, b when ty_equal a b -> true
  | (Tint | Tfloat), (Tint | Tfloat) -> true
  | Tptr _, Tptr Tvoid | Tptr Tvoid, Tptr _ -> true
  | _ -> false

let mark_addr_taken fx (e : expr) =
  match e.e with
  | Var x -> begin
    match Hashtbl.find_opt fx.ltbl x with
    | Some li -> li.addr_taken <- true
    | None -> ()
  end
  | _ -> ()

(* Check and alpha-rename an expression; returns the renamed tree.
   Types are validated via [ty_of]/[lvalue_ty] over the growing
   checked tables, so an ill-typed subterm raises here. *)
let rec check_expr fx (e : expr) : expr =
  let line = e.line in
  let node =
    match e.e with
    | Int_lit _ | Float_lit _ | Null | Sizeof _ -> e.e
    | Var x -> begin
      match resolve_var fx line x with
      | `Local u ->
        (match Hashtbl.find_opt fx.ltbl u with
        | Some li -> li.uses <- li.uses + 1
        | None -> ());
        Var u
      | `Global -> Var x
    end
    | Binop (op, a, b) ->
      let a = check_expr fx a and b = check_expr fx b in
      let ta = ty_of fx.c ~fname:fx.fname a
      and tb = ty_of fx.c ~fname:fx.fname b in
      (match op with
      | Mod | Shl | Shr | Band | Bor | Bxor ->
        if not (ty_equal ta Tint && ty_equal tb Tint) then
          err line "integer operator applied to %s and %s" (ty_to_string ta)
            (ty_to_string tb)
      | Land | Lor ->
        if not (scalar ta && scalar tb) then
          err line "logical operator on non-scalar"
      | Eq | Ne | Lt | Le | Gt | Ge ->
        let ok =
          (is_arith ta && is_arith tb)
          || (is_ptr ta && is_ptr tb)
          || (is_ptr ta && tb = Tptr Tvoid)
          || (ta = Tptr Tvoid && is_ptr tb)
        in
        if not ok then
          err line "cannot compare %s with %s" (ty_to_string ta) (ty_to_string tb)
      | Add | Sub -> begin
        match ta, tb with
        | Tptr _, Tptr _ when op = Sub && ty_equal ta tb -> ()
        | Tptr _, Tint -> ()
        | Tint, Tptr _ when op = Add -> ()
        | _ when is_arith ta && is_arith tb -> ()
        | _ ->
          err line "cannot apply +/- to %s and %s" (ty_to_string ta)
            (ty_to_string tb)
      end
      | Mul | Div ->
        if not (is_arith ta && is_arith tb) then
          err line "cannot multiply/divide %s and %s" (ty_to_string ta)
            (ty_to_string tb));
      Binop (op, a, b)
    | Unop (op, a) ->
      let a = check_expr fx a in
      let ta = ty_of fx.c ~fname:fx.fname a in
      (match op with
      | Neg -> if not (is_arith ta) then err line "negation of non-arithmetic"
      | Not -> if not (scalar ta) then err line "! applied to non-scalar"
      | Bnot -> if not (ty_equal ta Tint) then err line "~ applied to non-int");
      Unop (op, a)
    | Assign (lv, rhs) ->
      let lv = check_lvalue fx lv in
      let rhs = check_expr fx rhs in
      let tl = lvalue_ty fx.c ~fname:fx.fname lv in
      if not (scalar tl) then err line "assignment to aggregate";
      let tr = ty_of fx.c ~fname:fx.fname rhs in
      if not (assignable fx.c.structs tl tr) then
        err line "cannot assign %s to %s" (ty_to_string tr) (ty_to_string tl);
      Assign (lv, rhs)
    | Cond (c, a, b) ->
      let c = check_expr fx c in
      let a = check_expr fx a and b = check_expr fx b in
      let tc = ty_of fx.c ~fname:fx.fname c in
      if not (scalar tc) then err line "condition is not scalar";
      let ta = ty_of fx.c ~fname:fx.fname a
      and tb = ty_of fx.c ~fname:fx.fname b in
      if not (ty_equal ta tb || (is_arith ta && is_arith tb)
             || (is_ptr ta && tb = Tptr Tvoid) || (ta = Tptr Tvoid && is_ptr tb))
      then err line "branches of ?: have incompatible types";
      Cond (c, a, b)
    | Call (f, args) ->
      let args = List.map (check_expr fx) args in
      if List.mem f builtin_names then begin
        if String.equal f "fabs" then begin
          (match args with
          | [ a ] ->
            if not (is_arith (ty_of fx.c ~fname:fx.fname a)) then
              err line "fabs expects an arithmetic argument"
          | _ -> err line "fabs expects one argument")
        end
        else if args <> [] then err line "%s takes no arguments" f;
        Call (f, args)
      end
      else begin
        match Hashtbl.find_opt fx.c.funcs f with
        | None -> err line "unknown function %s" f
        | Some fi ->
          if List.length args <> List.length fi.params then
            err line "%s expects %d arguments, got %d" f (List.length fi.params)
              (List.length args);
          List.iter2
            (fun (pty, _) arg ->
              let targ = ty_of fx.c ~fname:fx.fname arg in
              if not (assignable fx.c.structs (decay pty) targ) then
                err line "argument of type %s where %s expected"
                  (ty_to_string targ) (ty_to_string pty))
            fi.params args;
          Call (f, args)
      end
    | Index (a, i) ->
      let a = check_expr fx a and i = check_expr fx i in
      let ta = ty_of fx.c ~fname:fx.fname a in
      (match ta with
      | Tptr Tvoid -> err line "indexing void pointer"
      | Tptr _ -> ()
      | t -> err line "indexing %s" (ty_to_string t));
      if not (ty_equal (ty_of fx.c ~fname:fx.fname i) Tint) then
        err line "array index is not an int";
      Index (a, i)
    | Deref p ->
      let p = check_expr fx p in
      (match ty_of fx.c ~fname:fx.fname p with
      | Tptr Tvoid -> err line "dereference of void pointer"
      | Tptr _ -> ()
      | t -> err line "dereference of %s" (ty_to_string t));
      Deref p
    | Addr lv ->
      let lv = check_lvalue fx lv in
      mark_addr_taken fx lv;
      Addr lv
    | Arrow (p, f) ->
      let p = check_expr fx p in
      (match ty_of fx.c ~fname:fx.fname p with
      | Tptr (Tstruct s) -> ignore (field_info fx.c.structs line s f)
      | t -> err line "-> applied to %s" (ty_to_string t));
      Arrow (p, f)
    | Dot (s, f) ->
      let s = check_lvalue fx s in
      (match lvalue_ty fx.c ~fname:fx.fname s with
      | Tstruct sn -> ignore (field_info fx.c.structs line sn f)
      | t -> err line ". applied to %s" (ty_to_string t));
      Dot (s, f)
    | Cast (t, a) ->
      let a = check_expr fx a in
      let ta = ty_of fx.c ~fname:fx.fname a in
      let ok =
        match t, ta with
        | (Tint | Tfloat), (Tint | Tfloat) -> true
        | Tptr _, (Tptr _ | Tint) -> true
        | Tint, Tptr _ -> true
        | _ -> false
      in
      if not ok then
        err line "cannot cast %s to %s" (ty_to_string ta) (ty_to_string t);
      Cast (t, a)
  in
  { e with e = node }

and check_lvalue fx (e : expr) : expr =
  let line = e.line in
  match e.e with
  | Var _ | Index _ | Deref _ | Arrow _ | Dot _ -> begin
    let e = check_expr fx e in
    (* check_expr validated the node; re-validate lvalue-ness *)
    match e.e with
    | Var _ | Index _ | Deref _ | Arrow _ | Dot _ -> e
    | _ -> err line "expression is not an lvalue"
  end
  | _ -> err line "expression is not an lvalue"

let rec check_stmt fx (s : stmt) : stmt =
  let line = s.sline in
  let node =
    match s.s with
    | Expr e -> Expr (check_expr fx e)
    | Decl (ty, name, init) -> begin
      (match ty with
      | Tvoid -> err line "void variable"
      | Tarray (Tvoid, _) -> err line "array of void"
      | Tstruct sn | Tarray (Tstruct sn, _) ->
        if not (Hashtbl.mem fx.c.structs sn) then err line "unknown struct %s" sn
      | _ -> ());
      ignore (struct_size fx.c.structs line ty);
      let init = Option.map (check_expr fx) init in
      let unique = declare_local fx line ty name in
      (match init with
      | Some i ->
        if not (scalar ty) then err line "cannot initialise aggregate";
        let ti = ty_of fx.c ~fname:fx.fname i in
        if not (assignable fx.c.structs (decay ty) ti) then
          err line "cannot initialise %s with %s" (ty_to_string ty)
            (ty_to_string ti)
      | None -> ());
      Decl (ty, unique, init)
    end
    | If (c, t, e) ->
      let c = check_expr fx c in
      if not (scalar (ty_of fx.c ~fname:fx.fname c)) then
        err line "condition is not scalar";
      If (c, check_block fx t, check_block fx e)
    | While (c, body) ->
      let c = check_expr fx c in
      if not (scalar (ty_of fx.c ~fname:fx.fname c)) then
        err line "condition is not scalar";
      fx.loops <- fx.loops + 1;
      fx.continues <- fx.continues + 1;
      let body = check_block fx body in
      fx.loops <- fx.loops - 1;
      fx.continues <- fx.continues - 1;
      While (c, body)
    | Do_while (body, c) ->
      fx.loops <- fx.loops + 1;
      fx.continues <- fx.continues + 1;
      let body = check_block fx body in
      fx.loops <- fx.loops - 1;
      fx.continues <- fx.continues - 1;
      let c = check_expr fx c in
      if not (scalar (ty_of fx.c ~fname:fx.fname c)) then
        err line "condition is not scalar";
      Do_while (body, c)
    | For (init, cond, step, body) ->
      let init = Option.map (check_expr fx) init in
      let cond = Option.map (check_expr fx) cond in
      (match cond with
      | Some c ->
        if not (scalar (ty_of fx.c ~fname:fx.fname c)) then
          err line "condition is not scalar"
      | None -> ());
      let step = Option.map (check_expr fx) step in
      fx.loops <- fx.loops + 1;
      fx.continues <- fx.continues + 1;
      let body = check_block fx body in
      fx.loops <- fx.loops - 1;
      fx.continues <- fx.continues - 1;
      For (init, cond, step, body)
    | Switch (e, cases, default) ->
      let e = check_expr fx e in
      if not (ty_equal (ty_of fx.c ~fname:fx.fname e) Tint) then
        err line "switch expression is not an int";
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (vals, _) ->
          List.iter
            (fun v ->
              if Hashtbl.mem seen v then err line "duplicate case %d" v;
              Hashtbl.add seen v ())
            vals)
        cases;
      fx.loops <- fx.loops + 1;
      let cases = List.map (fun (vs, body) -> (vs, check_block fx body)) cases in
      let default = check_block fx default in
      fx.loops <- fx.loops - 1;
      Switch (e, cases, default)
    | Return None ->
      if not (ty_equal fx.ret Tvoid) then err line "missing return value";
      Return None
    | Return (Some e) ->
      if ty_equal fx.ret Tvoid then err line "return value in void function";
      let e = check_expr fx e in
      let te = ty_of fx.c ~fname:fx.fname e in
      if not (assignable fx.c.structs (decay fx.ret) te) then
        err line "returning %s from function returning %s" (ty_to_string te)
          (ty_to_string fx.ret);
      Return (Some e)
    | Break ->
      if fx.loops = 0 then err line "break outside loop or switch";
      Break
    | Continue ->
      if fx.continues = 0 then err line "continue outside loop";
      Continue
    | Block body -> Block (check_block fx body)
    | Print e ->
      let e = check_expr fx e in
      if not (scalar (ty_of fx.c ~fname:fx.fname e)) then
        err line "print of non-scalar";
      Print e
    | Halt_stmt -> Halt_stmt
  in
  { s with s = node }

and check_block fx body =
  fx.scopes <- [] :: fx.scopes;
  let body = List.map (check_stmt fx) body in
  (match fx.scopes with
  | _ :: rest -> fx.scopes <- rest
  | [] -> assert false);
  body

let layout_structs prog =
  let structs = Hashtbl.create 16 in
  List.iter
    (fun { d; dline } ->
      match d with
      | Struct_def (name, fields) ->
        if Hashtbl.mem structs name then err dline "duplicate struct %s" name;
        let off = ref 0 in
        let laid =
          List.map
            (fun (fty, fname) ->
              (match fty with
              | Tstruct s when not (Hashtbl.mem structs s) ->
                err dline "field %s: struct %s not yet defined" fname s
              | Tvoid -> err dline "field %s has type void" fname
              | _ -> ());
              let sz = struct_size structs dline fty in
              let this = (fname, fty, !off) in
              off := !off + sz;
              this)
            fields
        in
        (* duplicate field check *)
        let names = List.map (fun (n, _, _) -> n) laid in
        if List.length (List.sort_uniq compare names) <> List.length names then
          err dline "duplicate field in struct %s" name;
        Hashtbl.replace structs name { fields = laid; size = !off }
      | Global _ | Func _ -> ())
    prog;
  structs

let check prog =
  let structs = layout_structs prog in
  let globals = Hashtbl.create 64 in
  let funcs = Hashtbl.create 64 in
  let locals = Hashtbl.create 64 in
  let next = ref Mips.Program.gp_base in
  let idata = ref [] and fdata = ref [] in
  let main_line = ref 0 in
  (* Pass 1: globals and function signatures. *)
  List.iter
    (fun { d; dline } ->
      match d with
      | Struct_def _ -> ()
      | Global (ty, name, init) ->
        if Hashtbl.mem globals name then err dline "duplicate global %s" name;
        (match ty with
        | Tvoid | Tarray (Tvoid, _) -> err dline "global %s has type void" name
        | _ -> ());
        let size = struct_size structs dline ty in
        let addr = !next in
        next := !next + size;
        Hashtbl.replace globals name { gaddr = addr; gty = ty };
        (match init with
        | None -> ()
        | Some e -> begin
          match ty, const_eval structs e with
          | Tfloat, Cfloat f -> fdata := (addr, f) :: !fdata
          | Tfloat, Cint n -> fdata := (addr, float_of_int n) :: !fdata
          | Tint, Cint n -> idata := (addr, n) :: !idata
          | Tptr _, Cint 0 -> ()
          | _ -> err e.line "bad initialiser for global %s" name
        end)
      | Func (ret, name, params, _) ->
        if Hashtbl.mem funcs name then err dline "duplicate function %s" name;
        if List.mem name builtin_names then
          err dline "%s is a builtin and cannot be redefined" name;
        let pnames = List.map snd params in
        if List.length (List.sort_uniq compare pnames) <> List.length pnames
        then err dline "duplicate parameter in %s" name;
        List.iter
          (fun (pty, pname) ->
            match pty with
            | Tvoid | Tstruct _ | Tarray _ ->
              err dline "parameter %s of %s must be scalar" pname name
            | Tint | Tfloat | Tptr _ -> ())
          params;
        if name = "main" then main_line := dline;
        Hashtbl.replace funcs name { ret; params })
    prog;
  (* a missing [main] has no line to name *)
  (match Hashtbl.find_opt funcs "main" with
  | Some { ret = Tint; params = []; _ } -> ()
  | Some _ -> err !main_line "main must be: int main()"
  | None -> err 0 "missing function main");
  let c =
    {
      prog = [];
      structs;
      globals;
      funcs;
      locals;
      globals_words = 0;
      idata = [];
      fdata = [];
    }
  in
  (* Pass 2: check bodies. *)
  let prog' =
    List.map
      (fun ({ d; dline } as decl) ->
        match d with
        | Struct_def _ | Global _ -> decl
        | Func (ret, name, params, body) ->
          let ltbl = Hashtbl.create 32 in
          Hashtbl.replace locals name ltbl;
          let fx =
            {
              c;
              fname = name;
              ret;
              ltbl;
              scopes = [ [] ];
              counter = 0;
              loops = 0;
              continues = 0;
            }
          in
          let params' =
            List.map
              (fun (pty, pname) -> (pty, declare_local fx dline pty pname))
              params
          in
          (* Re-register the signature with renamed parameters so the
             code generator sees matching names. *)
          Hashtbl.replace funcs name { ret; params = params' };
          let body' = check_block fx body in
          { decl with d = Func (ret, name, params', body') })
      prog
  in
  {
    c with
    prog = prog';
    globals_words = !next - Mips.Program.gp_base;
    idata = List.rev !idata;
    fdata = List.rev !fdata;
  }
