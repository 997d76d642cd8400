module I = Mips.Insn
module R = Mips.Reg

let is_control (ins : string I.t) =
  I.is_block_end ins || I.is_call ins

(* Is register [r] dead at this point in the item list?  Conservative:
   dead iff it is redefined before any use, label, or control
   transfer. *)
let rec dead_after r items =
  match items with
  | [] -> true (* end of procedure *)
  | Mips.Asm.Lab _ :: _ -> false
  | Mips.Asm.Ins ins :: rest ->
    if List.exists (R.equal r) (I.uses ins) then false
    else if List.exists (R.equal r) (I.defs ins) then true
    else if is_control ins then false
    else dead_after r rest

(* [changed] records that a pass rewrote something, so the fixpoint
   runs another. *)
let optimize items =
  let changed = ref false in
  let rewrite x =
    changed := true;
    x
  in
  let rec go = function
    | [] -> []
    (* li $tK, n; op d, s, $tK  ->  opi d, s, n   (tK dead after) *)
    | Mips.Asm.Ins (I.Li (rk, imm))
      :: Mips.Asm.Ins (I.Alu (op, d, s, I.Reg rk2))
      :: rest
      when R.equal rk rk2 && (not (R.equal rk d)) && not (R.equal rk s) ->
      if dead_after rk rest then
        rewrite (Mips.Asm.Ins (I.Alu (op, d, s, I.Imm imm))) :: go rest
      else
        (* keep the pair; continue past the first item *)
        Mips.Asm.Ins (I.Li (rk, imm))
        :: go (Mips.Asm.Ins (I.Alu (op, d, s, I.Reg rk2)) :: rest)
    | Mips.Asm.Ins (I.Move (d, s)) :: rest when R.equal d s -> rewrite (go rest)
    | Mips.Asm.Ins (I.Alu ((I.Add | I.Sub | I.Or | I.Xor | I.Sll | I.Sra), d, s, I.Imm 0))
      :: rest
      when R.equal d s ->
      rewrite (go rest)
    | Mips.Asm.Ins (I.Alu ((I.Mul | I.Div), d, s, I.Imm 1)) :: rest
      when R.equal d s ->
      rewrite (go rest)
    | Mips.Asm.Ins (I.Beq (a, b, l)) :: rest when R.equal a b ->
      rewrite (Mips.Asm.Ins (I.J l)) :: go rest
    | Mips.Asm.Ins (I.Bne (a, b, _)) :: rest when R.equal a b -> rewrite (go rest)
    | it :: rest -> it :: go rest
  in
  let rec fixpoint items =
    changed := false;
    let items' = go items in
    if !changed then fixpoint items' else items'
  in
  fixpoint items
