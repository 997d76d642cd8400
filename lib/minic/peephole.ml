module I = Mips.Insn
module R = Mips.Reg

type stats = {
  fused_immediates : int;
  dropped_moves : int;
  dropped_identities : int;
  simplified_branches : int;
}

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

let optimize items =
  let fused = ref 0 in
  let moves = ref 0 in
  let idents = ref 0 in
  let branches = ref 0 in
  let rec go = function
    | [] -> []
    (* li $tK, n; op d, s, $tK  ->  opi d, s, n   (tK dead after) *)
    | Mips.Asm.Ins (I.Li (rk, imm))
      :: Mips.Asm.Ins (I.Alu (op, d, s, I.Reg rk2))
      :: rest
      when R.equal rk rk2 && (not (R.equal rk d)) && not (R.equal rk s) ->
      if dead_after rk rest then begin
        incr fused;
        Mips.Asm.Ins (I.Alu (op, d, s, I.Imm imm)) :: go rest
      end
      else begin
        (* keep the pair; continue past the first item *)
        Mips.Asm.Ins (I.Li (rk, imm))
        :: go (Mips.Asm.Ins (I.Alu (op, d, s, I.Reg rk2)) :: rest)
      end
    | Mips.Asm.Ins (I.Move (d, s)) :: rest when R.equal d s ->
      incr moves;
      go rest
    | Mips.Asm.Ins (I.Alu ((I.Add | I.Sub | I.Or | I.Xor | I.Sll | I.Sra), d, s, I.Imm 0))
      :: rest
      when R.equal d s ->
      incr idents;
      go rest
    | Mips.Asm.Ins (I.Alu ((I.Mul | I.Div), d, s, I.Imm 1)) :: rest
      when R.equal d s ->
      incr idents;
      go rest
    | Mips.Asm.Ins (I.Beq (a, b, l)) :: rest when R.equal a b ->
      incr branches;
      Mips.Asm.Ins (I.J l) :: go rest
    | Mips.Asm.Ins (I.Bne (a, b, _)) :: rest when R.equal a b ->
      incr branches;
      go rest
    | it :: rest -> it :: go rest
  in
  let rec fixpoint items =
    let before = !fused + !moves + !idents + !branches in
    let items' = go items in
    if !fused + !moves + !idents + !branches = before then items'
    else fixpoint items'
  in
  let out = fixpoint items in
  ( out,
    {
      fused_immediates = !fused;
      dropped_moves = !moves;
      dropped_identities = !idents;
      simplified_branches = !branches;
    } )
