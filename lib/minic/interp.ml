open Ast

exception Fault of string

type stats = {
  checksum : int;
  ints_read : int;
  floats_read : int;
  steps : int;
}

let fault fmt = Printf.ksprintf (fun m -> raise (Fault m)) fmt

type value = VInt of int | VFloat of float

type state = {
  c : Sema.checked;
  mem_i : Sim.Machine.iplane;
  mem_f : Sim.Machine.fplane;
  mutable sp : int;
  mutable checksum : int;
  mutable icursor : int;
  mutable fcursor : int;
  mutable steps : int;
  mutable depth : int;
  max_steps : int;
  input : Sim.Dataset.t;
  bodies : (string, Ast.ty * Ast.param list * Ast.stmt list) Hashtbl.t;
}

(* Non-local control flow within a function body. *)
exception Return_exn of value option
exception Break_exn
exception Continue_exn
exception Halt_exn

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then fault "step limit exceeded"

let as_int = function
  | VInt n -> n
  | VFloat _ -> fault "internal: expected an int value"

let as_float = function
  | VFloat f -> f
  | VInt _ -> fault "internal: expected a float value"

let truthy = function VInt n -> n <> 0 | VFloat f -> f <> 0.

let coerce st v ~to_ =
  ignore st;
  match v, Sema.is_float_ty to_ with
  | VInt n, true -> VFloat (float_of_int n)
  | VFloat f, false ->
    if Float.is_nan f || Float.abs f >= 1e18 then
      fault "float-to-int out of range"
    else VInt (int_of_float f)
  | v, _ -> v

let load st ty addr =
  if addr < 0 || addr >= Mips.Program.mem_words then
    fault "load from bad address %d" addr;
  if Sema.is_float_ty ty then VFloat st.mem_f.{addr} else VInt st.mem_i.{addr}

let store st ty addr v =
  if addr < 0 || addr >= Mips.Program.mem_words then
    fault "store to bad address %d" addr;
  match coerce st v ~to_:ty with
  | VFloat f -> st.mem_f.{addr} <- f
  | VInt n -> st.mem_i.{addr} <- n

(* Per-invocation environment: every local lives at a stack address,
   mirroring an all-spilled frame. *)
type frame = { addrs : (string, int) Hashtbl.t; fname : string }

let local_info st frame x = Sema.lookup_local st.c frame.fname x

let alloc_local st frame x ty =
  let size = Sema.sizeof st.c ty in
  st.sp <- st.sp - size;
  if st.sp < Mips.Program.gp_base + st.c.globals_words then
    fault "stack overflow";
  Hashtbl.replace frame.addrs x st.sp;
  st.sp

let addr_of_var st frame x =
  match Hashtbl.find_opt frame.addrs x with
  | Some a -> a
  | None -> begin
    match Hashtbl.find_opt st.c.globals x with
    | Some g -> g.gaddr
    | None -> fault "unknown variable %s" x
  end

let var_ty st frame x =
  match local_info st frame x with
  | Some li -> li.lty
  | None -> begin
    match Hashtbl.find_opt st.c.globals x with
    | Some g -> g.gty
    | None -> fault "unknown variable %s" x
  end

let rec eval st frame (e : expr) : value =
  tick st;
  let ty_of e = Sema.ty_of st.c ~fname:frame.fname e in
  match e.e with
  | Int_lit n -> VInt n
  | Float_lit f -> VFloat f
  | Null -> VInt 0
  | Sizeof t -> VInt (Sema.sizeof st.c t)
  | Var x -> begin
    match var_ty st frame x with
    | Tarray _ | Tstruct _ -> VInt (addr_of_var st frame x)
    | t -> load st t (addr_of_var st frame x)
  end
  | Cast (t, a) -> begin
    let v = eval st frame a in
    match t with
    | Tfloat -> coerce st v ~to_:Tfloat
    | Tint -> coerce st v ~to_:Tint
    | Tptr _ -> v
    | _ -> fault "bad cast"
  end
  | Addr lv -> VInt (lval_addr st frame lv)
  | Deref _ | Index _ | Arrow _ | Dot _ -> begin
    let t = Sema.lvalue_ty st.c ~fname:frame.fname e in
    match t with
    | Tarray _ | Tstruct _ -> VInt (lval_addr st frame e)
    | _ -> load st t (lval_addr st frame e)
  end
  | Assign (lv, rhs) ->
    let tl = Sema.lvalue_ty st.c ~fname:frame.fname lv in
    let v = coerce st (eval st frame rhs) ~to_:tl in
    (* evaluation order matches the code generator: rhs, then address *)
    let addr = lval_addr st frame lv in
    store st tl addr v;
    v
  | Cond (c, a, b) ->
    let res_ty = ty_of e in
    let v = if truthy (eval st frame c) then eval st frame a else eval st frame b in
    if Sema.is_float_ty res_ty then coerce st v ~to_:Tfloat else v
  | Call (f, args) -> call st frame f args
  | Unop (Neg, a) -> begin
    match eval st frame a with
    | VInt n -> VInt (-n)
    | VFloat f -> VFloat (-.f)
  end
  | Unop (Not, a) -> VInt (if truthy (eval st frame a) then 0 else 1)
  | Unop (Bnot, a) -> VInt (lnot (as_int (eval st frame a)))
  | Binop ((Land | Lor) as op, a, b) ->
    (* short circuit *)
    let va = truthy (eval st frame a) in
    if op = Land then
      if not va then VInt 0
      else VInt (if truthy (eval st frame b) then 1 else 0)
    else if va then VInt 1
    else VInt (if truthy (eval st frame b) then 1 else 0)
  | Binop (op, a, b) -> begin
    let ta = ty_of a and tb = ty_of b in
    match ta, tb with
    | Tptr _, Tptr _ -> begin
      let x = as_int (eval st frame a) and y = as_int (eval st frame b) in
      (* sizeof only for difference: comparisons must work on [null],
         whose pointee type is void *)
      match op with
      | Sub ->
        let size = match ta with Tptr t -> Sema.sizeof st.c t | _ -> 1 in
        VInt ((x - y) / size)
      | Eq -> VInt (if x = y then 1 else 0)
      | Ne -> VInt (if x <> y then 1 else 0)
      | Lt -> VInt (if x < y then 1 else 0)
      | Le -> VInt (if x <= y then 1 else 0)
      | Gt -> VInt (if x > y then 1 else 0)
      | Ge -> VInt (if x >= y then 1 else 0)
      | _ -> fault "bad pointer operator"
    end
    | Tptr t, _ ->
      let x = as_int (eval st frame a) and y = as_int (eval st frame b) in
      let size = Sema.sizeof st.c t in
      (match op with
      | Add -> VInt (x + (y * size))
      | Sub -> VInt (x - (y * size))
      | _ -> fault "bad pointer operator")
    | _, Tptr t ->
      let x = as_int (eval st frame a) and y = as_int (eval st frame b) in
      let size = Sema.sizeof st.c t in
      (match op with
      | Add -> VInt ((x * size) + y)
      | _ -> fault "bad pointer operator")
    | _ ->
      if Sema.is_float_ty ta || Sema.is_float_ty tb then begin
        let x = as_float (coerce st (eval st frame a) ~to_:Tfloat) in
        let y = as_float (coerce st (eval st frame b) ~to_:Tfloat) in
        match op with
        | Add -> VFloat (x +. y)
        | Sub -> VFloat (x -. y)
        | Mul -> VFloat (x *. y)
        | Div -> VFloat (x /. y)
        | Lt -> VInt (if x < y then 1 else 0)
        | Le -> VInt (if x <= y then 1 else 0)
        | Gt -> VInt (if x > y then 1 else 0)
        | Ge -> VInt (if x >= y then 1 else 0)
        | Eq -> VInt (if x = y then 1 else 0)
        | Ne -> VInt (if x <> y then 1 else 0)
        | _ -> fault "float operand to integer operator"
      end
      else begin
        let x = as_int (eval st frame a) and y = as_int (eval st frame b) in
        match op with
        | Add -> VInt (x + y)
        | Sub -> VInt (x - y)
        | Mul -> VInt (x * y)
        | Div -> if y = 0 then fault "division by zero" else VInt (x / y)
        | Mod -> if y = 0 then fault "remainder by zero" else VInt (x mod y)
        | Shl -> VInt (x lsl (y land 63))
        | Shr -> VInt (x asr (y land 63))
        | Band -> VInt (x land y)
        | Bor -> VInt (x lor y)
        | Bxor -> VInt (x lxor y)
        | Lt -> VInt (if x < y then 1 else 0)
        | Le -> VInt (if x <= y then 1 else 0)
        | Gt -> VInt (if x > y then 1 else 0)
        | Ge -> VInt (if x >= y then 1 else 0)
        | Eq -> VInt (if x = y then 1 else 0)
        | Ne -> VInt (if x <> y then 1 else 0)
        | Land | Lor -> assert false
      end
  end

and lval_addr st frame (e : expr) : int =
  match e.e with
  | Var x -> addr_of_var st frame x
  | Deref p -> as_int (eval st frame p)
  | Index (a, i) -> begin
    let base = as_int (eval st frame a) in
    let idx = as_int (eval st frame i) in
    match Sema.ty_of st.c ~fname:frame.fname a with
    | Tptr t -> base + (idx * Sema.sizeof st.c t)
    | _ -> fault "indexing non-pointer"
  end
  | Arrow (p, f) -> begin
    let base = as_int (eval st frame p) in
    match Sema.ty_of st.c ~fname:frame.fname p with
    | Tptr (Tstruct s) -> begin
      match Hashtbl.find_opt st.c.structs s with
      | Some info ->
        let _, _, off =
          List.find (fun (n, _, _) -> String.equal n f) info.fields
        in
        base + off
      | None -> fault "unknown struct %s" s
    end
    | _ -> fault "-> on non-struct-pointer"
  end
  | Dot (s, f) -> begin
    let base = lval_addr st frame s in
    match Sema.lvalue_ty st.c ~fname:frame.fname s with
    | Tstruct sn -> begin
      match Hashtbl.find_opt st.c.structs sn with
      | Some info ->
        let _, _, off =
          List.find (fun (n, _, _) -> String.equal n f) info.fields
        in
        base + off
      | None -> fault "unknown struct %s" sn
    end
    | _ -> fault ". on non-struct"
  end
  | _ -> fault "not an lvalue"

and call st frame fname args =
  if String.equal fname "read" then begin
    let v =
      if st.icursor < Array.length st.input.ints then st.input.ints.(st.icursor)
      else -1
    in
    st.icursor <- st.icursor + 1;
    VInt v
  end
  else if String.equal fname "readf" then begin
    let v =
      if st.fcursor < Array.length st.input.floats then
        st.input.floats.(st.fcursor)
      else 0.
    in
    st.fcursor <- st.fcursor + 1;
    VFloat v
  end
  else if String.equal fname "fabs" then begin
    match args with
    | [ a ] ->
      VFloat (Float.abs (as_float (coerce st (eval st frame a) ~to_:Tfloat)))
    | _ -> fault "fabs arity"
  end
  else begin
    match Hashtbl.find_opt st.bodies fname with
    | None -> fault "unknown function %s" fname
    | Some (ret, params, body) ->
      if st.depth > 60_000 then fault "call stack overflow";
      let arg_values =
        List.map2
          (fun (pty, _) arg -> coerce st (eval st frame arg) ~to_:pty)
          params args
      in
      let callee = { addrs = Hashtbl.create 16; fname } in
      let saved_sp = st.sp in
      (* pre-allocate every local of the function (the compiled frame
         does the same); Decl statements only initialise *)
      (match Hashtbl.find_opt st.c.locals fname with
      | Some ltbl ->
        let names =
          List.sort compare (Hashtbl.fold (fun x _ acc -> x :: acc) ltbl [])
        in
        List.iter
          (fun x ->
            let li = Hashtbl.find ltbl x in
            ignore (alloc_local st callee x li.Sema.lty))
          names
      | None -> ());
      List.iter2
        (fun (pty, pname) v ->
          store st pty (addr_of_var st callee pname) v)
        params arg_values;
      st.depth <- st.depth + 1;
      let result =
        try
          exec_block st callee body;
          None
        with Return_exn v -> v
      in
      st.depth <- st.depth - 1;
      st.sp <- saved_sp;
      (match result with
      | Some v when not (ty_equal ret Tvoid) -> coerce st v ~to_:(Sema.decay ret)
      | Some _ | None -> VInt 0 (* void, or fell off the end *))
  end

and exec_block st frame stmts = List.iter (exec_stmt st frame) stmts

and exec_stmt st frame (s : stmt) =
  tick st;
  match s.s with
  | Expr e -> ignore (eval st frame e)
  | Decl (ty, x, init) -> begin
    match init with
    | Some rhs ->
      let v = coerce st (eval st frame rhs) ~to_:(Sema.decay ty) in
      store st (Sema.decay ty) (addr_of_var st frame x) v
    | None -> ()
  end
  | Print e -> begin
    match eval st frame e with
    | VInt n -> st.checksum <- ((st.checksum * 31) + n) land 0x3FFFFFFFFFFF
    | VFloat f ->
      let x = f *. 4096. in
      let v =
        if Float.is_nan x || Float.abs x >= 1e18 then 0x5EED else int_of_float x
      in
      st.checksum <- ((st.checksum * 31) + v) land 0x3FFFFFFFFFFF
  end
  | Halt_stmt -> raise Halt_exn
  | Return e -> raise (Return_exn (Option.map (eval st frame) e))
  | Break -> raise Break_exn
  | Continue -> raise Continue_exn
  | Block body -> exec_block st frame body
  | If (c, then_, else_) ->
    if truthy (eval st frame c) then exec_block st frame then_
    else exec_block st frame else_
  | While (c, body) ->
    (try
       while truthy (eval st frame c) do
         try exec_block st frame body with Continue_exn -> ()
       done
     with Break_exn -> ())
  | Do_while (body, c) ->
    let continue_ = ref true in
    (try
       while !continue_ do
         (try exec_block st frame body with Continue_exn -> ());
         continue_ := truthy (eval st frame c)
       done
     with Break_exn -> ())
  | For (init, cond, step, body) ->
    Option.iter (fun e -> ignore (eval st frame e)) init;
    let test () =
      match cond with Some c -> truthy (eval st frame c) | None -> true
    in
    (try
       while test () do
         (try exec_block st frame body with Continue_exn -> ());
         Option.iter (fun e -> ignore (eval st frame e)) step
       done
     with Break_exn -> ())
  | Switch (e, cases, default) -> begin
    let v = as_int (eval st frame e) in
    let body =
      match List.find_opt (fun (vals, _) -> List.mem v vals) cases with
      | Some (_, body) -> body
      | None -> default
    in
    try exec_block st frame body with Break_exn -> ()
  end

let run ?(max_steps = 200_000_000) src input =
  let c = Frontend.check_with_prelude src in
  let bodies = Hashtbl.create 64 in
  List.iter
    (fun { d; _ } ->
      match d with
      | Func (ret, name, params, body) ->
        Hashtbl.replace bodies name (ret, params, body)
      | Struct_def _ | Global _ -> ())
    c.prog;
  let mem_i, mem_f = Sim.Machine.map_planes () in
  let st =
    {
      c;
      mem_i;
      mem_f;
      sp = Mips.Program.stack_base;
      checksum = 0;
      icursor = 0;
      fcursor = 0;
      steps = 0;
      depth = 0;
      max_steps;
      input;
      bodies;
    }
  in
  List.iter (fun (a, v) -> st.mem_i.{a} <- v) (Frontend.initial_idata c);
  List.iter (fun (a, v) -> st.mem_f.{a} <- v) c.fdata;
  let frame = { addrs = Hashtbl.create 4; fname = "__entry" } in
  (try ignore (call st frame "main" []) with Return_exn _ | Halt_exn -> ());
  {
    checksum = st.checksum;
    ints_read = min st.icursor (Array.length input.ints);
    floats_read = min st.fcursor (Array.length input.floats);
    steps = st.steps;
  }
