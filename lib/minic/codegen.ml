open Ast
module I = Mips.Insn
module R = Mips.Reg
module F = Mips.Freg

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* Where a local lives. *)
type home =
  | Hireg of R.t
  | Hfreg of F.t
  | Hframe of int  (* word offset from $sp after the prologue *)

type value = Vint of R.t | Vflt of F.t

type ctx = {
  c : Sema.checked;
  fname : string;
  ret : ty;
  homes : (string, home) Hashtbl.t;
  frame_size : int;
  spill_base : int;           (* base of the temp-spill area *)
  used_sregs : int list;      (* indices of $s registers to save *)
  used_fsaved : int list;
  mutable items : Mips.Asm.item list;  (* reversed *)
  mutable nlabel : int;
  mutable itemps : int;       (* temp stack depths *)
  mutable ftemps : int;
  mutable breaks : string list;     (* innermost-first break targets *)
  mutable continues : string list;
}

let emit ctx ins = ctx.items <- Mips.Asm.Ins ins :: ctx.items
let label ctx l = ctx.items <- Mips.Asm.Lab l :: ctx.items

let fresh_label ctx =
  ctx.nlabel <- ctx.nlabel + 1;
  Printf.sprintf "L%d" ctx.nlabel

let epilogue_label = "Lepilogue"

(* --- temporaries ---------------------------------------------------- *)

let alloc_itemp ctx =
  if ctx.itemps >= R.num_temps then
    fail "%s: expression too complex (out of integer temporaries)" ctx.fname;
  let r = R.t ctx.itemps in
  ctx.itemps <- ctx.itemps + 1;
  r

let free_itemp ctx r =
  ctx.itemps <- ctx.itemps - 1;
  assert (R.equal r (R.t ctx.itemps))

let alloc_ftemp ctx =
  if ctx.ftemps >= F.num_temps then
    fail "%s: expression too complex (out of float temporaries)" ctx.fname;
  let r = F.temp ctx.ftemps in
  ctx.ftemps <- ctx.ftemps + 1;
  r

let free_ftemp ctx r =
  ctx.ftemps <- ctx.ftemps - 1;
  assert (F.equal r (F.temp ctx.ftemps))

let free_value ctx = function
  | Vint r -> free_itemp ctx r
  | Vflt r -> free_ftemp ctx r

let ireg = function
  | Vint r -> r
  | Vflt _ -> fail "internal: expected an integer value"

let freg = function
  | Vflt r -> r
  | Vint _ -> fail "internal: expected a float value"

(* --- typing helpers -------------------------------------------------- *)

let ty_of ctx e = Sema.ty_of ctx.c ~fname:ctx.fname e
let lvalue_ty ctx e = Sema.lvalue_ty ctx.c ~fname:ctx.fname e
let sizeof ctx t = Sema.sizeof ctx.c t

let is_float ctx e = Sema.is_float_ty (ty_of ctx e)

let pointee_size ctx e =
  match ty_of ctx e with
  | Tptr t -> sizeof ctx t
  | t -> fail "internal: pointer expected, got %s" (ty_to_string t)

(* --- value coercion --------------------------------------------------- *)

let coerce_to_float ctx v =
  match v with
  | Vflt _ -> v
  | Vint r ->
    free_itemp ctx r;
    let f = alloc_ftemp ctx in
    emit ctx (I.Itof (f, r));
    Vflt f

let coerce_to_int ctx v =
  match v with
  | Vint _ -> v
  | Vflt f ->
    free_ftemp ctx f;
    let r = alloc_itemp ctx in
    emit ctx (I.Ftoi (r, f));
    Vint r

let coerce ctx v ~to_ =
  if Sema.is_float_ty to_ then coerce_to_float ctx v else coerce_to_int ctx v

(* --- addressing ------------------------------------------------------- *)

(* A memory address: base register + word offset.  [owned] means the
   base is a temporary we must free after the access. *)
type addr = { base : R.t; off : int; owned : bool }

let free_addr ctx a = if a.owned then free_itemp ctx a.base

let home ctx x =
  match Hashtbl.find_opt ctx.homes x with
  | Some h -> h
  | None -> fail "internal: no home for local %s" x

let global_info ctx x = Hashtbl.find ctx.c.globals x

let is_local ctx x =
  match Sema.lookup_local ctx.c ctx.fname x with
  | Some _ -> Hashtbl.mem ctx.homes x
  | None -> false

(* Scale an integer index value by a word size, in place. *)
let scale_index ctx r size =
  if size = 1 then ()
  else begin
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    if size land (size - 1) = 0 then
      emit ctx (I.Alu (I.Sll, r, r, I.Imm (log2 size)))
    else emit ctx (I.Alu (I.Mul, r, r, I.Imm size))
  end

let rec lval_addr ctx (e : expr) : addr =
  match e.e with
  | Var x when is_local ctx x -> begin
    match home ctx x with
    | Hframe off -> { base = R.sp; off; owned = false }
    | Hireg _ | Hfreg _ -> fail "internal: lval_addr of register local %s" x
  end
  | Var x ->
    let g = global_info ctx x in
    { base = R.gp; off = g.gaddr - Mips.Program.gp_base; owned = false }
  | Deref p ->
    let v = gen_operand ctx p in
    { base = ireg v; off = 0; owned = is_temp_value ctx v }
  | Index (a, i) -> begin
    let size = pointee_size ctx a in
    match i.e with
    | Int_lit n ->
      let base = gen_operand ctx a in
      { base = ireg base; off = n * size; owned = is_temp_value ctx base }
    | _ ->
      let base = gen_expr ctx a in
      let idx = gen_expr ctx i in
      let ri = ireg idx in
      scale_index ctx ri size;
      emit ctx (I.Alu (I.Add, ireg base, ireg base, I.Reg ri));
      free_value ctx idx;
      { base = ireg base; off = 0; owned = true }
  end
  | Arrow (p, f) -> begin
    let off =
      match ty_of ctx p with
      | Tptr (Tstruct s) ->
        let _, off = field_offset ctx s f in
        off
      | t -> fail "internal: -> on %s" (ty_to_string t)
    in
    let base = gen_operand ctx p in
    { base = ireg base; off; owned = is_temp_value ctx base }
  end
  | Dot (s, f) -> begin
    let a = lval_addr ctx s in
    match lvalue_ty ctx s with
    | Tstruct sn ->
      let _, off = field_offset ctx sn f in
      { a with off = a.off + off }
    | t -> fail "internal: . on %s" (ty_to_string t)
  end
  | _ -> fail "internal: not an lvalue"

and field_offset ctx sname f =
  let info = Hashtbl.find ctx.c.structs sname in
  match List.find_opt (fun (n, _, _) -> String.equal n f) info.fields with
  | Some (_, fty, off) -> (fty, off)
  | None -> fail "internal: no field %s in %s" f sname

(* Is this value one of our stack temporaries (vs a long-lived home
   register that must not be freed or clobbered)? *)
and is_temp_value ctx = function
  | Vint r ->
    ctx.itemps > 0 && R.equal r (R.t (ctx.itemps - 1))
  | Vflt r -> ctx.ftemps > 0 && F.equal r (F.temp (ctx.ftemps - 1))

(* Produce a register holding [e]'s value.  When [e] is a simple read
   of a register-allocated local, that register is returned directly
   (not owned); otherwise the value is computed into a fresh owned
   temporary.  This keeps branches testing variables on the
   variable's own register, which the Guard heuristic depends on. *)
and gen_operand ctx (e : expr) : value =
  match e.e with
  | Var x when is_local ctx x -> begin
    match home ctx x with
    | Hireg r -> Vint r
    | Hfreg f -> Vflt f
    | Hframe _ -> gen_expr ctx e
  end
  | _ -> gen_expr ctx e

and free_operand ctx v = if is_temp_value ctx v then free_value ctx v

(* --- loads and stores -------------------------------------------------- *)

and load_from ctx (a : addr) ty : value =
  if Sema.is_float_ty ty then begin
    free_addr ctx a;
    let f = alloc_ftemp ctx in
    emit ctx (I.Ld (f, a.off, a.base));
    Vflt f
  end
  else if a.owned then begin
    (* reuse the base temp as the destination *)
    emit ctx (I.Lw (a.base, a.off, a.base));
    Vint a.base
  end
  else begin
    let r = alloc_itemp ctx in
    emit ctx (I.Lw (r, a.off, a.base));
    Vint r
  end

and store_to ctx (a : addr) v =
  (match v with
  | Vflt f -> emit ctx (I.Sd (f, a.off, a.base))
  | Vint r -> emit ctx (I.Sw (r, a.off, a.base)));
  free_addr ctx a

(* --- calls -------------------------------------------------------------- *)

(* Spill currently-live temporaries around a call.  The spill area has
   a reserved word per temporary. *)
and with_spilled_temps ctx k =
  let ni = ctx.itemps and nf = ctx.ftemps in
  for i = 0 to ni - 1 do
    emit ctx (I.Sw (R.t i, ctx.spill_base + i, R.sp))
  done;
  for i = 0 to nf - 1 do
    emit ctx (I.Sd (F.temp i, ctx.spill_base + R.num_temps + i, R.sp))
  done;
  k ();
  for i = 0 to ni - 1 do
    emit ctx (I.Lw (R.t i, ctx.spill_base + i, R.sp))
  done;
  for i = 0 to nf - 1 do
    emit ctx (I.Ld (F.temp i, ctx.spill_base + R.num_temps + i, R.sp))
  done

and gen_call ctx fname args =
  if String.equal fname "read" then begin
    let r = alloc_itemp ctx in
    emit ctx (I.ReadI r);
    Vint r
  end
  else if String.equal fname "readf" then begin
    let f = alloc_ftemp ctx in
    emit ctx (I.ReadF f);
    Vflt f
  end
  else if String.equal fname "fabs" then begin
    match args with
    | [ a ] ->
      let v = coerce_to_float ctx (gen_expr ctx a) in
      let f = freg v in
      emit ctx (I.Fabs (f, f));
      v
    | _ -> fail "fabs expects one argument"
  end
  else begin
    let fi = Hashtbl.find ctx.c.funcs fname in
    (* Evaluate arguments left to right into temporaries, coerced to
       the parameter types. *)
    let vals =
      List.map2
        (fun (pty, _) arg ->
          let v = gen_expr ctx arg in
          coerce ctx v ~to_:pty)
        fi.params args
    in
    (* Distribute: first four of each class to registers, the rest to
       the outgoing-argument area. *)
    let nint = ref 0 and nflt = ref 0 and nstack = ref 0 in
    let moves =
      List.map
        (fun v ->
          match v with
          | Vint r ->
            let k = !nint in
            incr nint;
            if k < 4 then `Ireg (r, R.a k)
            else begin
              let s = !nstack in
              incr nstack;
              `Istack (r, s)
            end
          | Vflt f ->
            let k = !nflt in
            incr nflt;
            if k < 4 then `Freg (f, F.arg k)
            else begin
              let s = !nstack in
              incr nstack;
              `Fstack (f, s)
            end)
        vals
    in
    (* Stack args go out first (they come from temporaries we are
       about to reuse), then register moves. *)
    List.iter
      (function
        | `Istack (r, s) -> emit ctx (I.Sw (r, s, R.sp))
        | `Fstack (f, s) -> emit ctx (I.Sd (f, s, R.sp))
        | `Ireg _ | `Freg _ -> ())
      moves;
    List.iter
      (function
        | `Ireg (r, a) -> emit ctx (I.Move (a, r))
        | `Freg (f, a) -> emit ctx (I.Fmove (a, f))
        | `Istack _ | `Fstack _ -> ())
      moves;
    (* Free the argument temporaries (reverse order: stack discipline). *)
    List.iter (fun v -> free_value ctx v) (List.rev vals);
    with_spilled_temps ctx (fun () -> emit ctx (I.Jal fname));
    match fi.ret with
    | Tvoid -> Vint R.zero (* placeholder; caller must not use it *)
    | t when Sema.is_float_ty t ->
      let f = alloc_ftemp ctx in
      emit ctx (I.Fmove (f, F.f0));
      Vflt f
    | _ ->
      let r = alloc_itemp ctx in
      emit ctx (I.Move (r, R.v0));
      Vint r
  end

(* --- expressions --------------------------------------------------------- *)

and gen_expr ctx (e : expr) : value =
  match e.e with
  | Int_lit n ->
    let r = alloc_itemp ctx in
    emit ctx (I.Li (r, n));
    Vint r
  | Float_lit x ->
    let f = alloc_ftemp ctx in
    emit ctx (I.Fli (f, x));
    Vflt f
  | Null ->
    let r = alloc_itemp ctx in
    emit ctx (I.Li (r, 0));
    Vint r
  | Sizeof t ->
    let r = alloc_itemp ctx in
    emit ctx (I.Li (r, sizeof ctx t));
    Vint r
  | Var x when is_local ctx x -> begin
    match home ctx x with
    | Hireg src ->
      let r = alloc_itemp ctx in
      emit ctx (I.Move (r, src));
      Vint r
    | Hfreg src ->
      let f = alloc_ftemp ctx in
      emit ctx (I.Fmove (f, src));
      Vflt f
    | Hframe off -> begin
      match Sema.lookup_local ctx.c ctx.fname x with
      | Some { lty = Tarray _; _ } ->
        (* array decays to its address *)
        let r = alloc_itemp ctx in
        emit ctx (I.Alu (I.Add, r, R.sp, I.Imm off));
        Vint r
      | Some { lty; _ } ->
        load_from ctx { base = R.sp; off; owned = false } lty
      | None -> fail "internal: missing local %s" x
    end
  end
  | Var x -> begin
    let g = global_info ctx x in
    let off = g.gaddr - Mips.Program.gp_base in
    match g.gty with
    | Tarray _ | Tstruct _ ->
      let r = alloc_itemp ctx in
      emit ctx (I.Alu (I.Add, r, R.gp, I.Imm off));
      Vint r
    | t -> load_from ctx { base = R.gp; off; owned = false } t
  end
  | Assign (lv, rhs) -> gen_assign ctx lv rhs
  | Call (f, args) -> gen_call ctx f args
  | Cast (t, a) -> begin
    let v = gen_expr ctx a in
    match t with
    | Tfloat -> coerce_to_float ctx v
    | Tint -> coerce_to_int ctx v
    | Tptr _ -> v (* pointer casts are free *)
    | _ -> fail "cast to %s" (ty_to_string t)
  end
  | Deref _ | Index _ | Arrow _ | Dot _ ->
    let t = ty_of ctx e in
    let a = lval_addr ctx e in
    if (match lvalue_ty ctx e with Tarray _ | Tstruct _ -> true | _ -> false)
    then begin
      (* aggregate lvalue used as a value: its address *)
      if a.owned then begin
        if a.off <> 0 then
          emit ctx (I.Alu (I.Add, a.base, a.base, I.Imm a.off));
        Vint a.base
      end
      else begin
        let r = alloc_itemp ctx in
        emit ctx (I.Alu (I.Add, r, a.base, I.Imm a.off));
        Vint r
      end
    end
    else load_from ctx a t
  | Addr lv -> begin
    let a = lval_addr ctx lv in
    if a.owned then begin
      if a.off <> 0 then emit ctx (I.Alu (I.Add, a.base, a.base, I.Imm a.off));
      Vint a.base
    end
    else begin
      let r = alloc_itemp ctx in
      emit ctx (I.Alu (I.Add, r, a.base, I.Imm a.off));
      Vint r
    end
  end
  | Unop (Neg, a) -> begin
    let v = gen_expr ctx a in
    match v with
    | Vint r ->
      emit ctx (I.Alu (I.Sub, r, R.zero, I.Reg r));
      v
    | Vflt f ->
      emit ctx (I.Fneg (f, f));
      v
  end
  | Unop (Bnot, a) ->
    let v = gen_expr ctx a in
    let r = ireg v in
    emit ctx (I.Alu (I.Xor, r, r, I.Imm (-1)));
    v
  | Unop (Not, a) -> begin
    if is_float ctx a then gen_bool_via_branch ctx e
    else begin
      let v = gen_expr ctx a in
      let r = ireg v in
      emit ctx (I.Alu (I.Seq, r, r, I.Imm 0));
      v
    end
  end
  | Binop ((Land | Lor), _, _) -> gen_bool_via_branch ctx e
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge), a, b) ->
    if is_float ctx a || is_float ctx b then gen_bool_via_branch ctx e
    else gen_int_compare ctx e a b
  | Binop (op, a, b) -> gen_arith ctx op a b
  | Cond (c, a, b) -> begin
    let res_float = Sema.is_float_ty (ty_of ctx e) in
    let lelse = fresh_label ctx and lend = fresh_label ctx in
    let dst = if res_float then Vflt (alloc_ftemp ctx) else Vint (alloc_itemp ctx) in
    gen_branch ctx c ~sense:false ~target:lelse;
    let va = gen_expr ctx a in
    let va = if res_float then coerce_to_float ctx va else va in
    move_into ctx dst va;
    free_value ctx va;
    emit ctx (I.J lend);
    label ctx lelse;
    let vb = gen_expr ctx b in
    let vb = if res_float then coerce_to_float ctx vb else vb in
    move_into ctx dst vb;
    free_value ctx vb;
    label ctx lend;
    dst
  end

and move_into ctx dst src =
  ignore ctx;
  match dst, src with
  | Vint d, Vint s -> emit ctx (I.Move (d, s))
  | Vflt d, Vflt s -> emit ctx (I.Fmove (d, s))
  | _ -> fail "internal: mixed-class move"

and gen_assign ctx lv rhs =
  let tl = lvalue_ty ctx lv in
  let v = gen_expr ctx rhs in
  let v = coerce ctx v ~to_:tl in
  (match lv.e with
  | Var x when is_local ctx x -> begin
    match home ctx x with
    | Hireg d -> emit ctx (I.Move (d, ireg v))
    | Hfreg d -> emit ctx (I.Fmove (d, freg v))
    | Hframe off ->
      store_to ctx { base = R.sp; off; owned = false } v
  end
  | _ ->
    let a = lval_addr ctx lv in
    store_to ctx a v);
  v

and gen_int_compare ctx e a b =
  ignore e;
  let op =
    match e.e with Binop (op, _, _) -> op | _ -> assert false
  in
  let va = gen_expr ctx a in
  let vb = gen_expr ctx b in
  let ra = ireg va and rb = ireg vb in
  (match op with
  | Eq -> emit ctx (I.Alu (I.Seq, ra, ra, I.Reg rb))
  | Ne -> emit ctx (I.Alu (I.Sne, ra, ra, I.Reg rb))
  | Lt -> emit ctx (I.Alu (I.Slt, ra, ra, I.Reg rb))
  | Le -> emit ctx (I.Alu (I.Sle, ra, ra, I.Reg rb))
  | Gt -> emit ctx (I.Alu (I.Slt, ra, rb, I.Reg ra))
  | Ge -> emit ctx (I.Alu (I.Sle, ra, rb, I.Reg ra))
  | _ -> assert false);
  free_value ctx vb;
  va

and gen_bool_via_branch ctx e =
  let ltrue = fresh_label ctx in
  let r = alloc_itemp ctx in
  emit ctx (I.Li (r, 1));
  gen_branch ctx e ~sense:true ~target:ltrue;
  emit ctx (I.Li (r, 0));
  label ctx ltrue;
  Vint r

and gen_arith ctx op a b =
  let ta = ty_of ctx a and tb = ty_of ctx b in
  match ta, tb with
  | Tptr _, Tptr _ ->
    (* pointer difference, scaled *)
    let size = pointee_size ctx a in
    let va = gen_expr ctx a in
    let vb = gen_expr ctx b in
    emit ctx (I.Alu (I.Sub, ireg va, ireg va, I.Reg (ireg vb)));
    if size > 1 then emit ctx (I.Alu (I.Div, ireg va, ireg va, I.Imm size));
    free_value ctx vb;
    va
  | Tptr _, _ ->
    let size = pointee_size ctx a in
    let va = gen_expr ctx a in
    let vb = gen_expr ctx b in
    scale_index ctx (ireg vb) size;
    let alu = match op with Add -> I.Add | Sub -> I.Sub | _ -> fail "pointer arithmetic with %s" (ty_to_string tb) in
    emit ctx (I.Alu (alu, ireg va, ireg va, I.Reg (ireg vb)));
    free_value ctx vb;
    va
  | _, Tptr _ ->
    (* int + ptr *)
    let size = pointee_size ctx b in
    let va = gen_expr ctx a in
    let vb = gen_expr ctx b in
    scale_index ctx (ireg va) size;
    emit ctx (I.Alu (I.Add, ireg va, ireg va, I.Reg (ireg vb)));
    free_value ctx vb;
    va
  | _ ->
    let want_float = Sema.is_float_ty ta || Sema.is_float_ty tb in
    if want_float then begin
      let va = gen_expr ctx a in
      let va = coerce_to_float ctx va in
      let vb = gen_expr ctx b in
      let vb = coerce_to_float ctx vb in
      let falu =
        match op with
        | Add -> I.Fadd
        | Sub -> I.Fsub
        | Mul -> I.Fmul
        | Div -> I.Fdiv
        | _ -> fail "float operand to integer operator"
      in
      emit ctx (I.Falu (falu, freg va, freg va, freg vb));
      free_value ctx vb;
      va
    end
    else begin
      let va = gen_expr ctx a in
      let vb = gen_expr ctx b in
      let alu =
        match op with
        | Add -> I.Add | Sub -> I.Sub | Mul -> I.Mul | Div -> I.Div
        | Mod -> I.Rem | Shl -> I.Sll | Shr -> I.Sra
        | Band -> I.And | Bor -> I.Or | Bxor -> I.Xor
        | _ -> assert false
      in
      emit ctx (I.Alu (alu, ireg va, ireg va, I.Reg (ireg vb)));
      free_value ctx vb;
      va
    end

(* --- conditional branches ----------------------------------------------- *)

(* Emit code that branches to [target] when the truth value of [e]
   equals [sense], falling through otherwise. *)
and gen_branch ctx (e : expr) ~sense ~target =
  match e.e with
  | Int_lit n ->
    if (n <> 0) = sense then emit ctx (I.J target)
  | Unop (Not, a) -> gen_branch ctx a ~sense:(not sense) ~target
  | Binop (Land, a, b) ->
    if sense then begin
      let lskip = fresh_label ctx in
      gen_branch ctx a ~sense:false ~target:lskip;
      gen_branch ctx b ~sense:true ~target;
      label ctx lskip
    end
    else begin
      gen_branch ctx a ~sense:false ~target;
      gen_branch ctx b ~sense:false ~target
    end
  | Binop (Lor, a, b) ->
    if sense then begin
      gen_branch ctx a ~sense:true ~target;
      gen_branch ctx b ~sense:true ~target
    end
    else begin
      let lskip = fresh_label ctx in
      gen_branch ctx a ~sense:true ~target:lskip;
      gen_branch ctx b ~sense:false ~target;
      label ctx lskip
    end
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) ->
    if is_float ctx a || is_float ctx b then gen_fcompare_branch ctx op a b ~sense ~target
    else gen_icompare_branch ctx op a b ~sense ~target
  | _ ->
    (* truthiness of a scalar value *)
    if is_float ctx e then begin
      let v = gen_operand ctx e in
      let z = alloc_ftemp ctx in
      emit ctx (I.Fli (z, 0.));
      emit ctx (I.Fcmp (I.Feq, freg v, z));
      free_ftemp ctx z;
      free_operand ctx v;
      (* e truthy <=> not equal to zero *)
      emit ctx (I.Bfp (not sense, target))
    end
    else begin
      let v = gen_operand ctx e in
      let r = ireg v in
      free_operand ctx v;
      if sense then emit ctx (I.Bne (r, R.zero, target))
      else emit ctx (I.Beq (r, R.zero, target))
    end

and is_zero_literal (e : expr) =
  match e.e with Int_lit 0 | Null -> true | _ -> false

and gen_icompare_branch ctx op a b ~sense ~target =
  let swap_op = function
    | Lt -> Gt | Gt -> Lt | Le -> Ge | Ge -> Le | x -> x
  in
  let op, a, b =
    if is_zero_literal a && not (is_zero_literal b) then (swap_op op, b, a)
    else (op, a, b)
  in
  if is_zero_literal b then begin
    let v = gen_operand ctx a in
    let r = ireg v in
    free_operand ctx v;
    match op, sense with
    | Eq, true | Ne, false -> emit ctx (I.Beq (r, R.zero, target))
    | Eq, false | Ne, true -> emit ctx (I.Bne (r, R.zero, target))
    | Lt, true | Ge, false -> emit ctx (I.Bz (I.Ltz, r, target))
    | Lt, false | Ge, true -> emit ctx (I.Bz (I.Gez, r, target))
    | Le, true | Gt, false -> emit ctx (I.Bz (I.Lez, r, target))
    | Le, false | Gt, true -> emit ctx (I.Bz (I.Gtz, r, target))
    | (Add | Sub | Mul | Div | Mod | Shl | Shr | Band | Bor | Bxor
      | Land | Lor), _ -> assert false
  end
  else begin
    match op with
    | Eq | Ne ->
      let va = gen_operand ctx a in
      let vb = gen_operand ctx b in
      let ra = ireg va and rb = ireg vb in
      free_operand ctx vb;
      free_operand ctx va;
      let taken_on_eq = (op = Eq) = sense in
      if taken_on_eq then emit ctx (I.Beq (ra, rb, target))
      else emit ctx (I.Bne (ra, rb, target))
    | _ ->
      (* slt/sle then test against zero; Gt/Ge feed the compare with
         swapped registers, but operands still evaluate in source
         order (the interpreter is left-to-right) *)
      let va = gen_operand ctx a in
      let vb = gen_operand ctx b in
      let ra = ireg va and rb = ireg vb in
      let alu, lhs, rhs =
        match op with
        | Lt -> (I.Slt, ra, rb)
        | Le -> (I.Sle, ra, rb)
        | Gt -> (I.Slt, rb, ra)
        | Ge -> (I.Sle, rb, ra)
        | _ -> assert false
      in
      let t = alloc_itemp ctx in
      emit ctx (I.Alu (alu, t, lhs, I.Reg rhs));
      free_itemp ctx t;
      free_operand ctx vb;
      free_operand ctx va;
      if sense then emit ctx (I.Bne (t, R.zero, target))
      else emit ctx (I.Beq (t, R.zero, target))
  end

and to_float_operand ctx v =
  match v with
  | Vflt _ -> v
  | Vint r ->
    if is_temp_value ctx v then coerce_to_float ctx v
    else begin
      let f = alloc_ftemp ctx in
      emit ctx (I.Itof (f, r));
      Vflt f
    end

and gen_fcompare_branch ctx op a b ~sense ~target =
  (* same source-order rule as the integer compares: Gt/Ge swap only
     the registers fed to the compare, never the evaluation order *)
  let va = to_float_operand ctx (gen_operand ctx a) in
  let vb = to_float_operand ctx (gen_operand ctx b) in
  let fa, fb =
    match op with
    | Gt | Ge -> (freg vb, freg va)
    | _ -> (freg va, freg vb)
  in
  let fcmp, bfp_sense =
    match op with
    | Eq -> (I.Feq, sense)
    | Ne -> (I.Feq, not sense)
    | Lt -> (I.Flt, sense)
    | Le -> (I.Fle, sense)
    | Gt -> (I.Flt, sense)
    | Ge -> (I.Fle, sense)
    | _ -> assert false
  in
  emit ctx (I.Fcmp (fcmp, fa, fb));
  free_operand ctx vb;
  free_operand ctx va;
  emit ctx (I.Bfp (bfp_sense, target))

(* --- statements ----------------------------------------------------------- *)

let rec gen_stmt ctx (s : stmt) =
  match s.s with
  | Expr e ->
    let v = gen_expr ctx e in
    (match ty_of ctx e with
    | Tvoid -> () (* void call: placeholder value, nothing to free *)
    | _ -> free_value ctx v)
  | Decl (_, x, init) -> begin
    match init with
    | None -> ()
    | Some rhs ->
      let v = gen_assign ctx { e = Var x; line = s.sline } rhs in
      free_value ctx v
  end
  | Print e -> begin
    let v = gen_expr ctx e in
    (match v with
    | Vint r -> emit ctx (I.PrintI r)
    | Vflt f -> emit ctx (I.PrintF f));
    free_value ctx v
  end
  | Halt_stmt -> emit ctx I.Halt
  | Return None -> emit ctx (I.J epilogue_label)
  | Return (Some e) -> begin
    let v = gen_expr ctx e in
    let v = coerce ctx v ~to_:ctx.ret in
    (match v with
    | Vint r -> emit ctx (I.Move (R.v0, r))
    | Vflt f -> emit ctx (I.Fmove (F.f0, f)));
    free_value ctx v;
    emit ctx (I.J epilogue_label)
  end
  | Block body -> List.iter (gen_stmt ctx) body
  | If (c, then_, []) ->
    let lend = fresh_label ctx in
    gen_branch ctx c ~sense:false ~target:lend;
    List.iter (gen_stmt ctx) then_;
    label ctx lend
  | If (c, then_, else_) ->
    let lelse = fresh_label ctx and lend = fresh_label ctx in
    gen_branch ctx c ~sense:false ~target:lelse;
    List.iter (gen_stmt ctx) then_;
    emit ctx (I.J lend);
    label ctx lelse;
    List.iter (gen_stmt ctx) else_;
    label ctx lend
  | While (c, body) ->
    (* Rotated loop: entry guard + bottom test (the "-O" idiom). *)
    let lbody = fresh_label ctx in
    let lcont = fresh_label ctx in
    let lend = fresh_label ctx in
    gen_branch ctx c ~sense:false ~target:lend;
    label ctx lbody;
    ctx.breaks <- lend :: ctx.breaks;
    ctx.continues <- lcont :: ctx.continues;
    List.iter (gen_stmt ctx) body;
    ctx.breaks <- List.tl ctx.breaks;
    ctx.continues <- List.tl ctx.continues;
    label ctx lcont;
    gen_branch ctx c ~sense:true ~target:lbody;
    label ctx lend
  | Do_while (body, c) ->
    let lbody = fresh_label ctx in
    let lcont = fresh_label ctx in
    let lend = fresh_label ctx in
    label ctx lbody;
    ctx.breaks <- lend :: ctx.breaks;
    ctx.continues <- lcont :: ctx.continues;
    List.iter (gen_stmt ctx) body;
    ctx.breaks <- List.tl ctx.breaks;
    ctx.continues <- List.tl ctx.continues;
    label ctx lcont;
    gen_branch ctx c ~sense:true ~target:lbody;
    label ctx lend
  | For (init, cond, step, body) ->
    (match init with
    | Some e ->
      let v = gen_expr ctx e in
      free_value ctx v
    | None -> ());
    let lbody = fresh_label ctx in
    let lcont = fresh_label ctx in
    let lend = fresh_label ctx in
    (match cond with
    | Some c -> gen_branch ctx c ~sense:false ~target:lend
    | None -> ());
    label ctx lbody;
    ctx.breaks <- lend :: ctx.breaks;
    ctx.continues <- lcont :: ctx.continues;
    List.iter (gen_stmt ctx) body;
    ctx.breaks <- List.tl ctx.breaks;
    ctx.continues <- List.tl ctx.continues;
    label ctx lcont;
    (match step with
    | Some e ->
      let v = gen_expr ctx e in
      free_value ctx v
    | None -> ());
    (match cond with
    | Some c -> gen_branch ctx c ~sense:true ~target:lbody
    | None -> emit ctx (I.J lbody));
    label ctx lend
  | Break -> begin
    match ctx.breaks with
    | l :: _ -> emit ctx (I.J l)
    | [] -> fail "break outside loop"
  end
  | Continue -> begin
    match ctx.continues with
    | l :: _ -> emit ctx (I.J l)
    | [] -> fail "continue outside loop"
  end
  | Switch (e, cases, default) -> gen_switch ctx e cases default

and gen_switch ctx e cases default =
  let lend = fresh_label ctx and ldefault = fresh_label ctx in
  let all_vals = List.concat_map fst cases in
  (match all_vals with
  | [] ->
    (* no cases: just evaluate and run default *)
    let v = gen_expr ctx e in
    free_value ctx v;
    label ctx ldefault;
    ctx.breaks <- lend :: ctx.breaks;
    List.iter (gen_stmt ctx) default;
    ctx.breaks <- List.tl ctx.breaks;
    label ctx lend
  | _ ->
    let lo = List.fold_left min max_int all_vals in
    let hi = List.fold_left max min_int all_vals in
    if hi - lo > 4096 then fail "switch cases too sparse (%d..%d)" lo hi;
    let case_labels =
      List.map (fun (vals, body) -> (vals, fresh_label ctx, body)) cases
    in
    let table = Array.make (hi - lo + 1) ldefault in
    List.iter
      (fun (vals, l, _) -> List.iter (fun v -> table.(v - lo) <- l) vals)
      case_labels;
    let v = gen_expr ctx e in
    let r = ireg v in
    if lo <> 0 then emit ctx (I.Alu (I.Sub, r, r, I.Imm lo));
    emit ctx (I.Bz (I.Ltz, r, ldefault));
    let t = alloc_itemp ctx in
    emit ctx (I.Alu (I.Sle, t, r, I.Imm (hi - lo)));
    emit ctx (I.Beq (t, R.zero, ldefault));
    free_itemp ctx t;
    emit ctx (I.Jtab (r, table));
    free_value ctx v;
    ctx.breaks <- lend :: ctx.breaks;
    List.iter
      (fun (_, l, body) ->
        label ctx l;
        List.iter (gen_stmt ctx) body;
        emit ctx (I.J lend))
      case_labels;
    label ctx ldefault;
    List.iter (gen_stmt ctx) default;
    ctx.breaks <- List.tl ctx.breaks;
    label ctx lend)

(* --- function assembly ----------------------------------------------------- *)

(* Maximum outgoing stack-argument words over all calls in the body. *)
let rec max_out_stmt c fname (s : stmt) =
  let me = max_out_expr c fname in
  match s.s with
  | Expr e | Print e -> me e
  | Decl (_, _, init) -> Option.fold ~none:0 ~some:me init
  | If (e, a, b) -> max (me e) (max (max_out_block c fname a) (max_out_block c fname b))
  | While (e, b) | Do_while (b, e) -> max (me e) (max_out_block c fname b)
  | For (i, e, st, b) ->
    List.fold_left max (max_out_block c fname b)
      (List.filter_map (Option.map me) [ i; e; st ])
  | Switch (e, cases, d) ->
    List.fold_left max
      (max (me e) (max_out_block c fname d))
      (List.map (fun (_, b) -> max_out_block c fname b) cases)
  | Return (Some e) -> me e
  | Return None | Break | Continue | Halt_stmt -> 0
  | Block b -> max_out_block c fname b

and max_out_block c fname b = List.fold_left (fun acc s -> max acc (max_out_stmt c fname s)) 0 b

and max_out_expr c fname (e : expr) =
  let me = max_out_expr c fname in
  match e.e with
  | Int_lit _ | Float_lit _ | Null | Sizeof _ | Var _ -> 0
  | Binop (_, a, b) | Index (a, b) -> max (me a) (me b)
  | Unop (_, a) | Deref a | Addr a | Arrow (a, _) | Dot (a, _) | Cast (_, a) ->
    me a
  | Assign (a, b) -> max (me a) (me b)
  | Cond (a, b, d) -> max (me a) (max (me b) (me d))
  | Call (f, args) ->
    let sub = List.fold_left (fun acc a -> max acc (me a)) 0 args in
    let own =
      if List.mem f Sema.builtin_names then 0
      else begin
        match Hashtbl.find_opt c.Sema.funcs f with
        | None -> 0
        | Some fi ->
          let ni =
            List.length
              (List.filter (fun (t, _) -> not (Sema.is_float_ty t)) fi.params)
          in
          let nf = List.length fi.params - ni in
          max 0 (ni - 4) + max 0 (nf - 4)
      end
    in
    max sub own

let gen_function c (ret, name, params, body) =
  let ltbl = Hashtbl.find c.Sema.locals name in
  (* Register allocation: most-used scalar locals whose address is not
     taken go to callee-saved registers. *)
  let candidates =
    Hashtbl.fold
      (fun x (li : Sema.local_info) acc ->
        match li.lty with
        | (Tint | Tptr _ | Tfloat) when not li.addr_taken ->
          (x, li) :: acc
        | _ -> acc)
      ltbl []
  in
  let by_uses =
    List.sort
      (fun (x1, l1) (x2, l2) ->
        let cmp = compare l2.Sema.uses l1.Sema.uses in
        if cmp <> 0 then cmp else compare x1 x2)
      candidates
  in
  let homes = Hashtbl.create 32 in
  let nsint = ref 0 and nsflt = ref 0 in
  let used_sregs = ref [] and used_fsaved = ref [] in
  List.iter
    (fun (x, (li : Sema.local_info)) ->
      if Sema.is_float_ty li.lty then begin
        if !nsflt < F.num_saved then begin
          Hashtbl.replace homes x (Hfreg (F.saved !nsflt));
          used_fsaved := !nsflt :: !used_fsaved;
          incr nsflt
        end
      end
      else if !nsint < R.num_saved then begin
        Hashtbl.replace homes x (Hireg (R.s !nsint));
        used_sregs := !nsint :: !used_sregs;
        incr nsint
      end)
    by_uses;
  (* Frame layout (word offsets from the post-prologue $sp):
       [0 .. nout)                     outgoing stack arguments
       [nout .. nout+18)               temp spill area
       [.. locals ..]                  memory-resident locals
       [.. saved $s, $f, $ra ..]                                     *)
  let nout = max_out_block c name body in
  let spill_base = nout in
  let nspill = R.num_temps + F.num_temps in
  let next_slot = ref (nout + nspill) in
  Hashtbl.iter
    (fun x (li : Sema.local_info) ->
      if not (Hashtbl.mem homes x) then begin
        let size =
          match li.lty with
          | Tarray _ | Tstruct _ -> Sema.sizeof c li.lty
          | _ -> 1
        in
        Hashtbl.replace homes x (Hframe !next_slot);
        next_slot := !next_slot + size
      end)
    ltbl;
  let save_base = !next_slot in
  let n_saves = List.length !used_sregs + List.length !used_fsaved + 1 in
  let frame_size = save_base + n_saves in
  let ctx =
    {
      c;
      fname = name;
      ret;
      homes;
      frame_size;
      spill_base;
      used_sregs = List.rev !used_sregs;
      used_fsaved = List.rev !used_fsaved;
      items = [];
      nlabel = 0;
      itemps = 0;
      ftemps = 0;
      breaks = [];
      continues = [];
    }
  in
  (* Prologue. *)
  emit ctx (I.Alu (I.Sub, R.sp, R.sp, I.Imm frame_size));
  let save_slot = ref save_base in
  let saves = ref [] in
  List.iter
    (fun i ->
      emit ctx (I.Sw (R.s i, !save_slot, R.sp));
      saves := `S (i, !save_slot) :: !saves;
      incr save_slot)
    ctx.used_sregs;
  List.iter
    (fun i ->
      emit ctx (I.Sd (F.saved i, !save_slot, R.sp));
      saves := `F (i, !save_slot) :: !saves;
      incr save_slot)
    ctx.used_fsaved;
  emit ctx (I.Sw (R.ra, !save_slot, R.sp));
  saves := `Ra !save_slot :: !saves;
  (* Move incoming arguments to their homes. *)
  let nint = ref 0 and nflt = ref 0 and nstack = ref 0 in
  List.iter
    (fun (pty, pname) ->
      let fromreg =
        if Sema.is_float_ty pty then begin
          let k = !nflt in
          incr nflt;
          if k < 4 then Some (Vflt (F.arg k)) else None
        end
        else begin
          let k = !nint in
          incr nint;
          if k < 4 then Some (Vint (R.a k)) else None
        end
      in
      let incoming_off () =
        let s = !nstack in
        incr nstack;
        frame_size + s
      in
      match Hashtbl.find_opt homes pname, fromreg with
      | Some (Hireg d), Some (Vint s) -> emit ctx (I.Move (d, s))
      | Some (Hfreg d), Some (Vflt s) -> emit ctx (I.Fmove (d, s))
      | Some (Hframe off), Some (Vint s) -> emit ctx (I.Sw (s, off, R.sp))
      | Some (Hframe off), Some (Vflt s) -> emit ctx (I.Sd (s, off, R.sp))
      | Some (Hireg d), None ->
        emit ctx (I.Lw (d, incoming_off (), R.sp))
      | Some (Hfreg d), None ->
        emit ctx (I.Ld (d, incoming_off (), R.sp))
      | Some (Hframe off), None ->
        if Sema.is_float_ty pty then begin
          let f = F.temp 0 in
          emit ctx (I.Ld (f, incoming_off (), R.sp));
          emit ctx (I.Sd (f, off, R.sp))
        end
        else begin
          let t = R.t 0 in
          emit ctx (I.Lw (t, incoming_off (), R.sp));
          emit ctx (I.Sw (t, off, R.sp))
        end
      | _ ->
        (* Unused parameter never received a home: discard, but keep
           stack-slot accounting consistent. *)
        if fromreg = None then ignore (incoming_off ()))
    params;
  (* Body. *)
  List.iter (gen_stmt ctx) body;
  (* Implicit return (void functions, or falling off the end). *)
  emit ctx (I.J epilogue_label);
  label ctx epilogue_label;
  List.iter
    (function
      | `S (i, slot) -> emit ctx (I.Lw (R.s i, slot, R.sp))
      | `F (i, slot) -> emit ctx (I.Ld (F.saved i, slot, R.sp))
      | `Ra slot -> emit ctx (I.Lw (R.ra, slot, R.sp)))
    (List.rev !saves);
  emit ctx (I.Alu (I.Add, R.sp, R.sp, I.Imm frame_size));
  emit ctx I.Ret;
  (name, List.rev ctx.items)

let gen_program c =
  List.filter_map
    (fun { d; _ } ->
      match d with
      | Func (ret, name, params, body) ->
        Some (gen_function c (ret, name, params, body))
      | Struct_def _ | Global _ -> None)
    c.Sema.prog
