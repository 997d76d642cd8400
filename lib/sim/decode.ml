(* Pre-decoded programs: each procedure body is flattened once into an
   array of dense opcodes and one interleaved array of integer
   operands, so the interpreter's inner loop is a single jump-table
   dispatch over [op] with no nested matches, no register wrappers, and
   no name lookups.  Calls are resolved to procedure indices, ALU
   reg/imm variants and float-compare / zero-test conditions are split
   into distinct opcodes, and jump tables / float immediates live in
   per-procedure side tables indexed by an operand field.  A [Fall_off]
   sentinel at slot n stands in for the interpreter's bounds test, and
   [runs] lets it check fuel once per straight-line run.  Pure writes
   to [$zero] decode to [Nop], and the eight hottest in-run pairs are
   fused into one op at the first slot of the pair. *)

type op =
  (* ALU, register-register: x=rd, y=rs, z=rt *)
  | Add_rr | Sub_rr | Mul_rr | Div_rr | Rem_rr
  | And_rr | Or_rr | Xor_rr | Sll_rr | Sra_rr
  | Slt_rr | Sle_rr | Seq_rr | Sne_rr
  (* ALU, register-immediate: x=rd, y=rs, z=imm *)
  | Add_ri | Sub_ri | Mul_ri | Div_ri | Rem_ri
  | And_ri | Or_ri | Xor_ri | Sll_ri | Sra_ri
  | Slt_ri | Sle_ri | Seq_ri | Sne_ri
  | Li            (* x=rd, y=imm *)
  | Move          (* x=rd, y=rs *)
  | Lw | Sw       (* x=rt, y=off, z=base *)
  | Fadd | Fsub | Fmul | Fdiv  (* x=fd, y=fs, z=ft *)
  | Fneg | Fabs | Fmove        (* x=fd, y=fs *)
  | Fli           (* x=fd, y=index into fimms *)
  | Ld | Sd       (* x=ft, y=off, z=base *)
  | Itof          (* x=fd, y=rs *)
  | Ftoi          (* x=rd, y=fs *)
  | Fcmp_eq | Fcmp_lt | Fcmp_le  (* x=fs, y=ft *)
  | Beq | Bne     (* x=rs, y=rt, z=target *)
  | Bltz | Blez | Bgtz | Bgez    (* x=rs, z=target *)
  | Bfp_t | Bfp_f (* z=target *)
  | Jump          (* z=target *)
  | Jtab          (* x=rs, y=index into jtabs *)
  | Call          (* z=pre-resolved callee procedure index *)
  | Ret
  | ReadI         (* x=rd *)
  | ReadF         (* x=fd *)
  | PrintI        (* x=rs *)
  | PrintF        (* x=fs *)
  | Halt
  | Nop
  | Fall_off      (* the sentinel at slot n: raises the fall-off fault *)
  | Fuel_trap     (* planted by the machine only: raises Out_of_fuel *)
  (* fused pairs at slot i: the first half's operands at slot i, the
     second half's at slot i + 1 *)
  | Add_ri_move | Move_add_rr | Add_rr_ld | Move_add_ri
  | Move_move | Add_rr_lw | Slt_rr_bne | Move_lw

type dproc = {
  ops : op array;
  args : int array;         (* x, y, z of slot i at 3i, 3i + 1, 3i + 2 *)
  runs : int array;         (* instructions up to the next transfer *)
  jtabs : int array array;  (* jump tables, referenced by y *)
  fimms : float array;      (* float immediates, referenced by y *)
}

type t = {
  prog : Mips.Program.t;
  procs : dproc array;
}

let is_transfer = function
  | Beq | Bne | Bltz | Blez | Bgtz | Bgez | Bfp_t | Bfp_f
  | Jump | Jtab | Call | Ret | Halt -> true
  | _ -> false

(* Ops whose only effect is writing integer register x: with x = 0
   they are [Nop]s.  Not Div/Rem, Lw or Ftoi, which can fault, nor
   ReadI, which consumes input. *)
let is_pure_write = function
  | Add_rr | Sub_rr | Mul_rr | And_rr | Or_rr | Xor_rr | Sll_rr | Sra_rr
  | Slt_rr | Sle_rr | Seq_rr | Sne_rr
  | Add_ri | Sub_ri | Mul_ri | And_ri | Or_ri | Xor_ri | Sll_ri | Sra_ri
  | Slt_ri | Sle_ri | Seq_ri | Sne_ri
  | Li | Move -> true
  | _ -> false

(* The fused set, chosen from the measured frequency of adjacent
   in-run pairs over the suite's profile runs. *)
let fuse first second =
  match (first, second) with
  | Add_ri, Move -> Some Add_ri_move
  | Move, Add_rr -> Some Move_add_rr
  | Add_rr, Ld -> Some Add_rr_ld
  | Move, Add_ri -> Some Move_add_ri
  | Move, Move -> Some Move_move
  | Add_rr, Lw -> Some Add_rr_lw
  | Slt_rr, Bne -> Some Slt_rr_bne
  | Move, Lw -> Some Move_lw
  | _ -> None

let unfuse = function
  | Add_ri_move -> Add_ri
  | Move_add_rr | Move_add_ri | Move_move | Move_lw -> Move
  | Add_rr_ld | Add_rr_lw -> Add_rr
  | Slt_rr_bne -> Slt_rr
  | o -> o

let decode_proc prog (p : Mips.Program.proc) =
  let n = Array.length p.body in
  let ops = Array.make (n + 1) Fall_off in
  let args = Array.make (3 * (n + 1)) 0 in
  let slot l =
    if l < 0 || l > n then
      invalid_arg
        (Printf.sprintf "Decode.of_program: %s targets slot %d of %d" p.name l
           n);
    l
  in
  let jtabs = ref [] and njtabs = ref 0 in
  let fimms = ref [] and nfimms = ref 0 in
  let ireg = Mips.Reg.to_int and freg = Mips.Freg.to_int in
  let add_jtab tab =
    jtabs := tab :: !jtabs;
    incr njtabs;
    !njtabs - 1
  in
  let add_fimm x =
    fimms := x :: !fimms;
    incr nfimms;
    !nfimms - 1
  in
  let set i o x y z =
    ops.(i) <- (if x = 0 && is_pure_write o then Nop else o);
    args.(3 * i) <- x;
    args.((3 * i) + 1) <- y;
    args.((3 * i) + 2) <- z
  in
  Array.iteri
    (fun i (ins : int Mips.Insn.t) ->
      match ins with
      | Alu (aop, rd, rs, operand) ->
        let d = ireg rd and s = ireg rs in
        (match operand with
        | Mips.Insn.Reg rt ->
          let o =
            match aop with
            | Add -> Add_rr | Sub -> Sub_rr | Mul -> Mul_rr | Div -> Div_rr
            | Rem -> Rem_rr | And -> And_rr | Or -> Or_rr | Xor -> Xor_rr
            | Sll -> Sll_rr | Sra -> Sra_rr | Slt -> Slt_rr | Sle -> Sle_rr
            | Seq -> Seq_rr | Sne -> Sne_rr
          in
          set i o d s (ireg rt)
        | Mips.Insn.Imm imm ->
          let o =
            match aop with
            | Add -> Add_ri | Sub -> Sub_ri | Mul -> Mul_ri | Div -> Div_ri
            | Rem -> Rem_ri | And -> And_ri | Or -> Or_ri | Xor -> Xor_ri
            | Sll -> Sll_ri | Sra -> Sra_ri | Slt -> Slt_ri | Sle -> Sle_ri
            | Seq -> Seq_ri | Sne -> Sne_ri
          in
          set i o d s imm)
      | Li (r, n) -> set i Li (ireg r) n 0
      | Move (rd, rs) -> set i Move (ireg rd) (ireg rs) 0
      | Lw (rt, off, base) -> set i Lw (ireg rt) off (ireg base)
      | Sw (rt, off, base) -> set i Sw (ireg rt) off (ireg base)
      | Falu (fop, fd, fs, ft) ->
        let o =
          match fop with
          | Fadd -> Fadd | Fsub -> Fsub | Fmul -> Fmul | Fdiv -> Fdiv
        in
        set i o (freg fd) (freg fs) (freg ft)
      | Fneg (fd, fs) -> set i Fneg (freg fd) (freg fs) 0
      | Fabs (fd, fs) -> set i Fabs (freg fd) (freg fs) 0
      | Fli (fd, x) -> set i Fli (freg fd) (add_fimm x) 0
      | Fmove (fd, fs) -> set i Fmove (freg fd) (freg fs) 0
      | Ld (ft, off, base) -> set i Ld (freg ft) off (ireg base)
      | Sd (ft, off, base) -> set i Sd (freg ft) off (ireg base)
      | Itof (fd, rs) -> set i Itof (freg fd) (ireg rs) 0
      | Ftoi (rd, fs) -> set i Ftoi (ireg rd) (freg fs) 0
      | Fcmp (c, fs, ft) ->
        let o =
          match c with Feq -> Fcmp_eq | Flt -> Fcmp_lt | Fle -> Fcmp_le
        in
        set i o (freg fs) (freg ft) 0
      | Beq (rs, rt, l) -> set i Beq (ireg rs) (ireg rt) (slot l)
      | Bne (rs, rt, l) -> set i Bne (ireg rs) (ireg rt) (slot l)
      | Bz (c, rs, l) ->
        let o =
          match c with Ltz -> Bltz | Lez -> Blez | Gtz -> Bgtz | Gez -> Bgez
        in
        set i o (ireg rs) 0 (slot l)
      | Bfp (sense, l) -> set i (if sense then Bfp_t else Bfp_f) 0 0 (slot l)
      | J l -> set i Jump 0 0 (slot l)
      | Jtab (rs, ls) -> set i Jtab (ireg rs) (add_jtab (Array.map slot ls)) 0
      | Jal name -> set i Call 0 0 (Mips.Program.proc_index prog name)
      | Ret -> set i Ret 0 0 0
      | ReadI r -> set i ReadI (ireg r) 0 0
      | ReadF fr -> set i ReadF (freg fr) 0 0
      | PrintI r -> set i PrintI (ireg r) 0 0
      | PrintF fr -> set i PrintF (freg fr) 0 0
      | Halt -> set i Halt 0 0 0)
    p.body;
  let runs = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    runs.(i) <- (if is_transfer ops.(i) then 1 else 1 + runs.(i + 1))
  done;
  (* Left to right, so slot i + 1 still holds its plain op when the
     pair (i, i + 1) is tested; it may then be fused with i + 2 for
     runs that enter at i + 1. *)
  for i = 0 to n - 2 do
    match fuse ops.(i) ops.(i + 1) with
    | Some f -> ops.(i) <- f
    | None -> ()
  done;
  {
    ops;
    args;
    runs;
    jtabs = Array.of_list (List.rev !jtabs);
    fimms = Array.of_list (List.rev !fimms);
  }

let of_program prog =
  { prog; procs = Array.map (decode_proc prog) prog.Mips.Program.procs }
