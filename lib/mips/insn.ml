type alu =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Sll | Sra
  | Slt | Sle | Seq | Sne

type falu = Fadd | Fsub | Fmul | Fdiv

type zcond = Ltz | Lez | Gtz | Gez

type fcmp = Feq | Flt | Fle

type operand = Reg of Reg.t | Imm of int

type 'lab t =
  | Alu of alu * Reg.t * Reg.t * operand
  | Li of Reg.t * int
  | Move of Reg.t * Reg.t
  | Lw of Reg.t * int * Reg.t
  | Sw of Reg.t * int * Reg.t
  | Falu of falu * Freg.t * Freg.t * Freg.t
  | Fneg of Freg.t * Freg.t
  | Fabs of Freg.t * Freg.t
  | Fli of Freg.t * float
  | Fmove of Freg.t * Freg.t
  | Ld of Freg.t * int * Reg.t
  | Sd of Freg.t * int * Reg.t
  | Itof of Freg.t * Reg.t
  | Ftoi of Reg.t * Freg.t
  | Fcmp of fcmp * Freg.t * Freg.t
  | Beq of Reg.t * Reg.t * 'lab
  | Bne of Reg.t * Reg.t * 'lab
  | Bz of zcond * Reg.t * 'lab
  | Bfp of bool * 'lab
  | J of 'lab
  | Jtab of Reg.t * 'lab array
  | Jal of string
  | Ret
  | ReadI of Reg.t
  | ReadF of Freg.t
  | PrintI of Reg.t
  | PrintF of Freg.t
  | Halt

let is_cond_branch = function
  | Beq _ | Bne _ | Bz _ | Bfp _ -> true
  | Alu _ | Li _ | Move _ | Lw _ | Sw _ | Falu _ | Fneg _ | Fabs _ | Fli _
  | Fmove _ | Ld _ | Sd _ | Itof _ | Ftoi _ | Fcmp _ | J _ | Jtab _ | Jal _ | Ret
  | ReadI _ | ReadF _ | PrintI _ | PrintF _ | Halt ->
    false

let is_block_end i =
  is_cond_branch i
  || match i with J _ | Jtab _ | Ret | Halt -> true | _ -> false

let is_call = function Jal _ -> true | _ -> false
let is_return = function Ret -> true | _ -> false
let is_store = function Sw _ | Sd _ -> true | _ -> false

let branch_target = function
  | Beq (_, _, l) | Bne (_, _, l) | Bz (_, _, l) | Bfp (_, l) | J l -> Some l
  | _ -> None

let operand_uses = function Reg r -> [ r ] | Imm _ -> []

let uses = function
  | Alu (_, _, rs, op) -> rs :: operand_uses op
  | Li _ | Fli _ -> []
  | Move (_, rs) -> [ rs ]
  | Lw (_, _, base) -> [ base ]
  | Sw (rt, _, base) -> [ rt; base ]
  | Falu _ | Fneg _ | Fabs _ | Fmove _ | Fcmp _ -> []
  | Ld (_, _, base) -> [ base ]
  | Sd (_, _, base) -> [ base ]
  | Itof (_, rs) -> [ rs ]
  | Ftoi _ -> []
  | Beq (rs, rt, _) | Bne (rs, rt, _) -> [ rs; rt ]
  | Bz (_, rs, _) -> [ rs ]
  | Bfp _ -> []
  | J _ -> []
  | Jtab (rs, _) -> [ rs ]
  | Jal _ -> []
  | Ret -> [ Reg.ra ]
  | ReadI _ | ReadF _ -> []
  | PrintI (rs) -> [ rs ]
  | PrintF _ -> []
  | Halt -> []

let defs = function
  | Alu (_, rd, _, _) -> [ rd ]
  | Li (rd, _) -> [ rd ]
  | Move (rd, _) -> [ rd ]
  | Lw (rt, _, _) -> [ rt ]
  | Sw _ -> []
  | Falu _ | Fneg _ | Fabs _ | Fli _ | Fmove _ | Fcmp _ -> []
  | Ld _ | Sd _ -> []
  | Itof _ -> []
  | Ftoi (rd, _) -> [ rd ]
  | Beq _ | Bne _ | Bz _ | Bfp _ | J _ | Jtab _ -> []
  | Jal _ -> [ Reg.ra ]
  | Ret -> []
  | ReadI (rd) -> [ rd ]
  | ReadF _ -> []
  | PrintI _ | PrintF _ -> []
  | Halt -> []

let fuses = function
  | Falu (_, _, fs, ft) -> [ fs; ft ]
  | Fneg (_, fs) | Fabs (_, fs) | Fmove (_, fs) -> [ fs ]
  | Sd (ft, _, _) -> [ ft ]
  | Ftoi (_, fs) -> [ fs ]
  | Fcmp (_, fs, ft) -> [ fs; ft ]
  | PrintF (fs) -> [ fs ]
  | _ -> []

let fdefs = function
  | Falu (_, fd, _, _) -> [ fd ]
  | Fneg (fd, _) | Fabs (fd, _) | Fli (fd, _) | Fmove (fd, _) -> [ fd ]
  | Ld (ft, _, _) -> [ ft ]
  | Itof (fd, _) -> [ fd ]
  | ReadF (fd) -> [ fd ]
  | _ -> []

let map_label f = function
  | Beq (a, b, l) -> Beq (a, b, f l)
  | Bne (a, b, l) -> Bne (a, b, f l)
  | Bz (c, r, l) -> Bz (c, r, f l)
  | Bfp (b, l) -> Bfp (b, f l)
  | J l -> J (f l)
  | Jtab (r, ls) -> Jtab (r, Array.map f ls)
  | Alu (o, a, b, c) -> Alu (o, a, b, c)
  | Li (r, n) -> Li (r, n)
  | Move (a, b) -> Move (a, b)
  | Lw (a, n, b) -> Lw (a, n, b)
  | Sw (a, n, b) -> Sw (a, n, b)
  | Falu (o, a, b, c) -> Falu (o, a, b, c)
  | Fneg (a, b) -> Fneg (a, b)
  | Fabs (a, b) -> Fabs (a, b)
  | Fli (r, x) -> Fli (r, x)
  | Fmove (a, b) -> Fmove (a, b)
  | Ld (a, n, b) -> Ld (a, n, b)
  | Sd (a, n, b) -> Sd (a, n, b)
  | Itof (a, b) -> Itof (a, b)
  | Ftoi (a, b) -> Ftoi (a, b)
  | Fcmp (c, a, b) -> Fcmp (c, a, b)
  | Jal s -> Jal s
  | Ret -> Ret
  | ReadI r -> ReadI r
  | ReadF r -> ReadF r
  | PrintI r -> PrintI r
  | PrintF r -> PrintF r
  | Halt -> Halt

let alu_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Sll -> "sll" | Sra -> "sra"
  | Slt -> "slt" | Sle -> "sle" | Seq -> "seq" | Sne -> "sne"

let falu_name = function
  | Fadd -> "add.d" | Fsub -> "sub.d" | Fmul -> "mul.d" | Fdiv -> "div.d"

let zcond_name = function
  | Ltz -> "bltz" | Lez -> "blez" | Gtz -> "bgtz" | Gez -> "bgez"

let fcmp_name = function Feq -> "c.eq.d" | Flt -> "c.lt.d" | Fle -> "c.le.d"

let pp pp_lab ppf i =
  let pf fmt = Format.fprintf ppf fmt in
  let reg = Reg.name and freg = Freg.name in
  match i with
  | Alu (op, rd, rs, Reg rt) ->
    pf "%s %s, %s, %s" (alu_name op) (reg rd) (reg rs) (reg rt)
  | Alu (op, rd, rs, Imm n) ->
    pf "%si %s, %s, %d" (alu_name op) (reg rd) (reg rs) n
  | Li (rd, n) -> pf "li %s, %d" (reg rd) n
  | Move (rd, rs) -> pf "move %s, %s" (reg rd) (reg rs)
  | Lw (rt, off, base) -> pf "lw %s, %d(%s)" (reg rt) off (reg base)
  | Sw (rt, off, base) -> pf "sw %s, %d(%s)" (reg rt) off (reg base)
  | Falu (op, fd, fs, ft) ->
    pf "%s %s, %s, %s" (falu_name op) (freg fd) (freg fs) (freg ft)
  | Fneg (fd, fs) -> pf "neg.d %s, %s" (freg fd) (freg fs)
  | Fabs (fd, fs) -> pf "abs.d %s, %s" (freg fd) (freg fs)
  | Fli (fd, x) -> pf "li.d %s, %g" (freg fd) x
  | Fmove (fd, fs) -> pf "mov.d %s, %s" (freg fd) (freg fs)
  | Ld (ft, off, base) -> pf "l.d %s, %d(%s)" (freg ft) off (reg base)
  | Sd (ft, off, base) -> pf "s.d %s, %d(%s)" (freg ft) off (reg base)
  | Itof (fd, rs) -> pf "cvt.d.w %s, %s" (freg fd) (reg rs)
  | Ftoi (rd, fs) -> pf "trunc.w.d %s, %s" (reg rd) (freg fs)
  | Fcmp (c, fs, ft) -> pf "%s %s, %s" (fcmp_name c) (freg fs) (freg ft)
  | Beq (rs, rt, l) -> pf "beq %s, %s, %a" (reg rs) (reg rt) pp_lab l
  | Bne (rs, rt, l) -> pf "bne %s, %s, %a" (reg rs) (reg rt) pp_lab l
  | Bz (c, rs, l) -> pf "%s %s, %a" (zcond_name c) (reg rs) pp_lab l
  | Bfp (true, l) -> pf "bc1t %a" pp_lab l
  | Bfp (false, l) -> pf "bc1f %a" pp_lab l
  | J l -> pf "j %a" pp_lab l
  | Jtab (rs, ls) ->
    pf "jtab %s, [%s]" (reg rs)
      (String.concat "; "
         (Array.to_list (Array.map (Format.asprintf "%a" pp_lab) ls)))
  | Jal s -> pf "jal %s" s
  | Ret -> pf "jr $ra"
  | ReadI rd -> pf "readi %s" (reg rd)
  | ReadF fd -> pf "readf %s" (freg fd)
  | PrintI rs -> pf "printi %s" (reg rs)
  | PrintF fs -> pf "printf %s" (freg fs)
  | Halt -> pf "halt"

let to_string i = Format.asprintf "%a" (pp Format.pp_print_int) i
