(* Tests for the pre-decoded simulator: decoding up front agrees with
   decoding on demand, scratch-memory reuse leaves no residue, a fixed
   batch of fuzz-generated programs keeps its pinned statistics and
   edge profiles, every decoded body has its sentinel, the
   straight-line run lengths the interpreter's fuel check relies on,
   and only the fused pairs and [$zero] rewrites it is meant to, and
   every instruction form of the IR is one the compiler emits. *)

open Check

let same_profile where (d : Sim.Profile.t) (l : Sim.Profile.t) =
  checki (where ^ ": instr_count") l.stats.instr_count d.stats.instr_count;
  checki (where ^ ": checksum") l.stats.checksum d.stats.checksum;
  checki (where ^ ": ints_read") l.stats.ints_read d.stats.ints_read;
  checki (where ^ ": floats_read") l.stats.floats_read d.stats.floats_read;
  checkb (where ^ ": taken edge counts") true (l.taken = d.taken);
  checkb (where ^ ": fall edge counts") true (l.fall = d.fall)

(* decoding is not memoised; the explicit [decoded] argument must
   agree with the implicit decode-on-demand path *)
let test_decode_on_demand_agrees () =
  let wl = Workloads.Registry.find "gcc" in
  let prog = Workloads.Workload.compile wl in
  let ds = Workloads.Workload.primary_dataset wl in
  let decoded = Sim.Decode.of_program prog in
  let a = Sim.Profile.run ~decoded prog ds in
  let b = Sim.Profile.run prog ds in
  same_profile "gcc explicit-vs-implicit decode" a b

(* 120 seeded generator programs, mixed sizes, profiled in order: the
   total instruction count and one digest over every program's stats
   and edge profile are pinned.  The generator is fault-free, so any
   fault fails the test. *)
let fuzz_cases = 120
let fuzz_instrs = 425723
let fuzz_digest = "39c210db72f60907c887e8f895f0826c"

(* The pinned programs, compiled once for the tests that read them. *)
let fuzz_programs =
  lazy
    (List.init fuzz_cases (fun i ->
         let cs = Fuzz.Gen.case_seed ~seed:1993 ~index:i in
         let size = 8 + (i mod 13) in
         Minic.Frontend.compile
           (Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:cs ~size))))

let workload_programs =
  lazy
    (List.map
       (fun (wl : Workloads.Workload.t) ->
         (wl.name, Workloads.Workload.compile wl))
       Workloads.Registry.all)

let test_fuzzed_programs_pinned () =
  let dataset = Sim.Dataset.make ~name:"fuzz" [||] in
  let b = Buffer.create (1 lsl 16) in
  let instrs = ref 0 in
  List.iteri
    (fun i prog ->
      match Sim.Profile.run prog dataset with
      | exception e -> Alcotest.failf "case %d: %s" i (Printexc.to_string e)
      | p ->
        instrs := !instrs + p.stats.instr_count;
        Printf.bprintf b "case %d\n" i;
        Edge_digest.render_stats b p.stats;
        Edge_digest.render_edges b p)
    (Lazy.force fuzz_programs);
  checki "total instructions" fuzz_instrs !instrs;
  Alcotest.(check string) "digest of (stats, edges)" fuzz_digest
    (Edge_digest.hex b)

(* no run may leave a residue for the next: the same decoded program
   profiled twice back-to-back on one domain (each run on its own
   freshly mapped planes) yields identical results *)
let test_scratch_reuse_is_clean () =
  let wl = Workloads.Registry.find "xlisp" in
  let prog = Workloads.Workload.compile wl in
  let decoded = Sim.Decode.of_program prog in
  List.iter
    (fun ds ->
      let a = Sim.Profile.run ~decoded prog ds in
      let b = Sim.Profile.run ~decoded prog ds in
      same_profile
        (Printf.sprintf "xlisp/%s rerun" (ds.Sim.Dataset.name))
        a b)
    wl.datasets

(* Every decoded procedure ends in the sentinel, and [runs] counts the
   straight-line run from each slot: 1 at a control transfer, one more
   than the next slot's elsewhere, 0 at the sentinel.  Nothing decodes
   to [Fuel_trap]; only the interpreter plants it.

   Every slot un-fuses to [plain], the op of its instruction written
   out here independently of the decoder; a fused op sits only where
   the next slot decodes to its second half, and every pair of the
   set that occurs is fused.  No transfer and no sentinel is fused. *)
let is_transfer : int Mips.Insn.t -> bool = function
  | Beq _ | Bne _ | Bz _ | Bfp _ | J _ | Jtab _
  | Jal _ | Ret | Halt -> true
  | _ -> false

(* A write to $zero decodes to [Nop] only when it has no other effect:
   not for Div/Rem, Lw, Ftoi or ReadI, which can fault or read input. *)
let plain : int Mips.Insn.t -> Sim.Decode.op =
  let module D = Sim.Decode in
  let to_zero r = Mips.Reg.to_int r = 0 in
  function
  | Alu (aop, rd, _, operand) ->
    let rr, ri =
      match aop with
      | Add -> (D.Add_rr, D.Add_ri) | Sub -> (D.Sub_rr, D.Sub_ri)
      | Mul -> (D.Mul_rr, D.Mul_ri) | Div -> (D.Div_rr, D.Div_ri)
      | Rem -> (D.Rem_rr, D.Rem_ri) | And -> (D.And_rr, D.And_ri)
      | Or -> (D.Or_rr, D.Or_ri) | Xor -> (D.Xor_rr, D.Xor_ri)
      | Sll -> (D.Sll_rr, D.Sll_ri) | Sra -> (D.Sra_rr, D.Sra_ri)
      | Slt -> (D.Slt_rr, D.Slt_ri) | Sle -> (D.Sle_rr, D.Sle_ri)
      | Seq -> (D.Seq_rr, D.Seq_ri) | Sne -> (D.Sne_rr, D.Sne_ri)
    in
    let pure = match aop with Div | Rem -> false | _ -> true in
    if pure && to_zero rd then D.Nop
    else (match operand with Reg _ -> rr | Imm _ -> ri)
  | Li (r, _) -> if to_zero r then D.Nop else D.Li
  | Move (r, _) -> if to_zero r then D.Nop else D.Move
  | Lw _ -> D.Lw
  | Sw _ -> D.Sw
  | Falu (Fadd, _, _, _) -> D.Fadd
  | Falu (Fsub, _, _, _) -> D.Fsub
  | Falu (Fmul, _, _, _) -> D.Fmul
  | Falu (Fdiv, _, _, _) -> D.Fdiv
  | Fneg _ -> D.Fneg
  | Fabs _ -> D.Fabs
  | Fli _ -> D.Fli
  | Fmove _ -> D.Fmove
  | Ld _ -> D.Ld
  | Sd _ -> D.Sd
  | Itof _ -> D.Itof
  | Ftoi _ -> D.Ftoi
  | Fcmp (Feq, _, _) -> D.Fcmp_eq
  | Fcmp (Flt, _, _) -> D.Fcmp_lt
  | Fcmp (Fle, _, _) -> D.Fcmp_le
  | Beq _ -> D.Beq
  | Bne _ -> D.Bne
  | Bz (Ltz, _, _) -> D.Bltz
  | Bz (Lez, _, _) -> D.Blez
  | Bz (Gtz, _, _) -> D.Bgtz
  | Bz (Gez, _, _) -> D.Bgez
  | Bfp (sense, _) -> if sense then D.Bfp_t else D.Bfp_f
  | J _ -> D.Jump
  | Jtab _ -> D.Jtab
  | Jal _ -> D.Call
  | Ret -> D.Ret
  | ReadI _ -> D.ReadI
  | ReadF _ -> D.ReadF
  | PrintI _ -> D.PrintI
  | PrintF _ -> D.PrintF
  | Halt -> D.Halt

(* the fused set: (fused op, first half, second half) *)
let fused_pairs =
  Sim.Decode.
    [ (Add_ri_move, Add_ri, Move); (Move_add_rr, Move, Add_rr);
      (Add_rr_ld, Add_rr, Ld); (Move_add_ri, Move, Add_ri);
      (Move_move, Move, Move); (Add_rr_lw, Add_rr, Lw);
      (Slt_rr_bne, Slt_rr, Bne); (Move_lw, Move, Lw) ]

let check_decoded where (prog : Mips.Program.t) =
  let d = Sim.Decode.of_program prog in
  Array.iteri
    (fun p (dp : Sim.Decode.dproc) ->
      let body = prog.procs.(p).body in
      let n = Array.length body in
      let fail i what =
        Alcotest.failf "%s: %s+%d: %s" where prog.procs.(p).name i what
      in
      if Array.length dp.ops <> n + 1 || Array.length dp.runs <> n + 1 then
        fail n "expected n + 1 slots";
      if Array.length dp.args <> 3 * (n + 1) then
        fail n "expected 3 (n + 1) operands";
      if dp.ops.(n) <> Sim.Decode.Fall_off then fail n "no sentinel";
      if dp.runs.(n) <> 0 then fail n "runs at the sentinel is not 0";
      for i = 0 to n - 1 do
        let expect = if is_transfer body.(i) then 1 else 1 + dp.runs.(i + 1) in
        if dp.runs.(i) <> expect then
          fail i (Printf.sprintf "runs %d, expected %d" dp.runs.(i) expect);
        (match dp.ops.(i) with
        | Sim.Decode.Fall_off | Sim.Decode.Fuel_trap ->
          fail i "sentinel or trap inside the body"
        | _ -> ());
        let op = dp.ops.(i) in
        if Sim.Decode.unfuse op <> plain body.(i) then
          fail i "does not un-fuse to the plain decoding";
        let next = if i + 1 < n then Some (plain body.(i + 1)) else None in
        (match List.find_opt (fun (f, _, _) -> f = op) fused_pairs with
        | Some (_, _, second) ->
          if is_transfer body.(i) then fail i "a transfer is fused";
          if next <> Some second then
            fail i "fused, but the next slot is not the second half"
        | None ->
          if op <> plain body.(i) then fail i "not the plain decoding";
          if
            List.exists
              (fun (_, first, second) ->
                first = op && next = Some second)
              fused_pairs
          then fail i "a pair of the fused set is not fused")
      done)
    d.procs

(* Every op that can write an integer register, with $zero as its
   destination: the pure ones decode to [Nop], the others keep their
   op (and their fault or input read).  The tail puts moves that would
   form fused pairs next to writes to $zero, which must not fuse. *)
let zero_writes =
  let module I = Mips.Insn in
  let zero = Mips.Reg.zero and t0 = Mips.Reg.t 0 in
  let f0 = Mips.Freg.temp 0 in
  let alus =
    I.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Sra; Slt; Sle; Seq; Sne ]
  in
  let body =
    List.concat_map
      (fun aop ->
        [ I.Alu (aop, zero, t0, I.Reg t0); I.Alu (aop, zero, t0, I.Imm 3) ])
      alus
    @ [ I.Li (zero, 1); I.Move (zero, t0); I.Move (t0, zero);
        I.Move (zero, t0); I.Lw (zero, 0, t0); I.Move (t0, t0);
        I.Move (zero, t0); I.Ftoi (zero, f0); I.ReadI zero;
        I.Alu (I.Add, zero, t0, I.Imm 1); I.Move (t0, t0); I.Ret ]
  in
  Mips.Program.make ~entry:"main"
    [ ("main", List.map (fun i -> Mips.Asm.Ins i) body) ]

let test_decoded_invariants () =
  check_decoded "writes to $zero" zero_writes;
  List.iter
    (fun (name, prog) -> check_decoded name prog)
    (Lazy.force workload_programs);
  List.iteri
    (fun i prog -> check_decoded (Printf.sprintf "fuzz case %d" i) prog)
    (Lazy.force fuzz_programs)

(* Every [Mips.Insn] constructor, numbered by a match with no wildcard:
   a new constructor does not compile until it is numbered here, and
   then the check below wants a compiled program that contains it. *)
let insn_forms =
  [| "Alu"; "Li"; "Move"; "Lw"; "Sw"; "Falu"; "Fneg"; "Fabs"; "Fli";
     "Fmove"; "Ld"; "Sd"; "Itof"; "Ftoi"; "Fcmp"; "Beq"; "Bne"; "Bz";
     "Bfp"; "J"; "Jtab"; "Jal"; "Ret"; "ReadI"; "ReadF"; "PrintI";
     "PrintF"; "Halt" |]

let insn_form : int Mips.Insn.t -> int = function
  | Alu _ -> 0 | Li _ -> 1 | Move _ -> 2 | Lw _ -> 3 | Sw _ -> 4
  | Falu _ -> 5 | Fneg _ -> 6 | Fabs _ -> 7 | Fli _ -> 8 | Fmove _ -> 9
  | Ld _ -> 10 | Sd _ -> 11 | Itof _ -> 12 | Ftoi _ -> 13 | Fcmp _ -> 14
  | Beq _ -> 15 | Bne _ -> 16 | Bz _ -> 17 | Bfp _ -> 18 | J _ -> 19
  | Jtab _ -> 20 | Jal _ -> 21 | Ret -> 22 | ReadI _ -> 23 | ReadF _ -> 24
  | PrintI _ -> 25 | PrintF _ -> 26 | Halt -> 27

(* The workloads and the pinned generator programs contain every form
   but [ReadF] and [Halt], which this one source adds. *)
let readf_halt =
  "int main() { float x = readf(); print(x); halt; return 0; }"

(* The IR holds nothing the compiler cannot make: every instruction
   form occurs in a compiled workload, a pinned generator program or
   [readf_halt]. *)
let test_every_form_compiled () =
  let seen = Array.make (Array.length insn_forms) false in
  let scan (prog : Mips.Program.t) =
    Array.iter
      (fun (p : Mips.Program.proc) ->
        Array.iter (fun i -> seen.(insn_form i) <- true) p.body)
      prog.procs
  in
  List.iter (fun (_, prog) -> scan prog) (Lazy.force workload_programs);
  List.iter scan (Lazy.force fuzz_programs);
  scan (Minic.Frontend.compile readf_halt);
  let missing =
    List.filteri (fun k _ -> not seen.(k)) (Array.to_list insn_forms)
  in
  Alcotest.(check (list string)) "forms no compiled program contains" []
    missing

let tests =
  [
    ( "differential",
      [
        Alcotest.test_case "explicit decode = implicit decode" `Quick
          test_decode_on_demand_agrees;
        Alcotest.test_case "fuzzed programs pinned" `Quick
          test_fuzzed_programs_pinned;
        Alcotest.test_case "scratch reuse leaves no residue" `Quick
          test_scratch_reuse_is_clean;
      ] );
    ( "invariants",
      [
        Alcotest.test_case "sentinel and straight-line runs" `Quick
          test_decoded_invariants;
        Alcotest.test_case "every instruction form is compiled" `Quick
          test_every_form_compiled;
      ] );
  ]
