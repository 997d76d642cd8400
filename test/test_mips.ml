(* Tests for the MIPS-like IR: registers, instruction metadata, the
   assembler, and program linking. *)

module I = Mips.Insn
module R = Mips.Reg
module F = Mips.Freg

open Check

let check = Alcotest.check

(* ---- registers ---- *)

let test_reg_names () =
  check Alcotest.string "zero" "$zero" (R.name R.zero);
  check Alcotest.string "sp" "$sp" (R.name R.sp);
  check Alcotest.string "gp" "$gp" (R.name R.gp);
  check Alcotest.string "ra" "$ra" (R.name R.ra);
  check Alcotest.string "t8" "$t8" (R.name (R.t 8));
  check Alcotest.string "t0" "$t0" (R.name (R.t 0));
  check Alcotest.string "s3" "$s3" (R.name (R.s 3));
  check Alcotest.string "a2" "$a2" (R.name (R.a 2))

let test_reg_bounds () =
  Alcotest.check_raises "of_int 32" (Invalid_argument "Reg.of_int: register out of range")
    (fun () -> ignore (R.of_int 32));
  Alcotest.check_raises "t 10" (Invalid_argument "Reg.t: temporary register out of range")
    (fun () -> ignore (R.t 10));
  Alcotest.check_raises "s 8" (Invalid_argument "Reg.s: saved register out of range")
    (fun () -> ignore (R.s 8));
  Alcotest.check_raises "a 4" (Invalid_argument "Reg.a: argument register out of range")
    (fun () -> ignore (R.a 4))

let test_reg_distinct () =
  (* every temporary and saved register is distinct from the special
     registers *)
  let specials = [ R.zero; R.gp; R.sp; R.fp; R.ra; R.v0; R.at ] in
  for i = 0 to R.num_temps - 1 do
    List.iter (fun s -> checkb "t<>special" false (R.equal (R.t i) s)) specials
  done;
  for i = 0 to R.num_saved - 1 do
    List.iter (fun s -> checkb "s<>special" false (R.equal (R.s i) s)) specials
  done

let test_freg () =
  check Alcotest.string "f0" "$f0" (F.name F.f0);
  checki "arg0" 12 (F.to_int (F.arg 0));
  checki "temp0" 4 (F.to_int (F.temp 0));
  checki "saved0" 20 (F.to_int (F.saved 0));
  Alcotest.check_raises "arg 4" (Invalid_argument "Freg.arg: out of range")
    (fun () -> ignore (F.arg 4))

(* ---- instruction metadata ---- *)

let t0 = R.t 0
let t1 = R.t 1
let f0 = F.temp 0
let f1 = F.temp 1

let test_is_branch () =
  checkb "beq" true (I.is_cond_branch (I.Beq (t0, t1, 5)));
  checkb "bne" true (I.is_cond_branch (I.Bne (t0, R.zero, 5)));
  checkb "bltz" true (I.is_cond_branch (I.Bz (I.Ltz, t0, 5)));
  checkb "bc1t" true (I.is_cond_branch (I.Bfp (true, 5)));
  checkb "j" false (I.is_cond_branch (I.J 5));
  checkb "jtab" false (I.is_cond_branch (I.Jtab (t0, [| 1; 2 |])));
  checkb "jal" false (I.is_cond_branch (I.Jal "f"));
  checkb "ret" false (I.is_cond_branch I.Ret)

let test_block_end () =
  checkb "branch ends" true (I.is_block_end (I.Beq (t0, t1, 0)));
  checkb "j ends" true (I.is_block_end (I.J 0));
  checkb "jtab ends" true (I.is_block_end (I.Jtab (t0, [| 0 |])));
  checkb "ret ends" true (I.is_block_end I.Ret);
  checkb "halt ends" true (I.is_block_end I.Halt);
  checkb "call does NOT end" false (I.is_block_end (I.Jal "f"));
  checkb "alu does not end" false
    (I.is_block_end (I.Alu (I.Add, t0, t0, I.Imm 1)))

let test_store_load () =
  checkb "sw" true (I.is_store (I.Sw (t0, 0, R.sp)));
  checkb "sd" true (I.is_store (I.Sd (f0, 0, R.sp)));
  checkb "lw not store" false (I.is_store (I.Lw (t0, 0, R.sp)))

let test_uses_defs () =
  let reg_list = Alcotest.(list string) in
  let names rs = List.map R.name rs in
  check reg_list "alu uses" [ "$t0"; "$t1" ]
    (names (I.uses (I.Alu (I.Add, R.v0, t0, I.Reg t1))));
  check reg_list "alu imm uses" [ "$t0" ]
    (names (I.uses (I.Alu (I.Add, R.v0, t0, I.Imm 3))));
  check reg_list "alu defs" [ "$v0" ]
    (names (I.defs (I.Alu (I.Add, R.v0, t0, I.Imm 3))));
  check reg_list "lw defs" [ "$t0" ] (names (I.defs (I.Lw (t0, 4, R.sp))));
  check reg_list "lw uses" [ "$sp" ] (names (I.uses (I.Lw (t0, 4, R.sp))));
  check reg_list "sw uses" [ "$t0"; "$sp" ]
    (names (I.uses (I.Sw (t0, 4, R.sp))));
  check reg_list "sw defs" [] (names (I.defs (I.Sw (t0, 4, R.sp))));
  check reg_list "jal defs ra" [ "$ra" ] (names (I.defs (I.Jal "f")));
  check reg_list "beq uses" [ "$t0"; "$t1" ]
    (names (I.uses (I.Beq (t0, t1, 0))));
  checkb "fcmp fuses" true (I.fuses (I.Fcmp (I.Feq, f0, f1)) = [ f0; f1 ]);
  checkb "fabs" true
    (I.fdefs (I.Fabs (f0, f1)) = [ f0 ] && I.fuses (I.Fabs (f0, f1)) = [ f1 ])

let test_branch_target () =
  checkb "beq target" true (I.branch_target (I.Beq (t0, t1, 7)) = Some 7);
  checkb "j target" true (I.branch_target (I.J 9) = Some 9);
  checkb "jtab no target" true (I.branch_target (I.Jtab (t0, [| 1 |])) = None);
  checkb "ret no target" true (I.branch_target I.Ret = None)

let test_map_label () =
  let shifted = I.map_label (fun l -> l + 10) (I.Beq (t0, t1, 5)) in
  checkb "beq shifted" true (shifted = I.Beq (t0, t1, 15));
  let tab = I.map_label (fun l -> l * 2) (I.Jtab (t0, [| 1; 2; 3 |])) in
  checkb "jtab shifted" true (tab = I.Jtab (t0, [| 2; 4; 6 |]))

let test_to_string () =
  check Alcotest.string "beq" "beq $t0, $t1, 5" (I.to_string (I.Beq (t0, t1, 5)));
  check Alcotest.string "bltz" "bltz $t0, 3" (I.to_string (I.Bz (I.Ltz, t0, 3)));
  check Alcotest.string "lw" "lw $t0, 4($sp)" (I.to_string (I.Lw (t0, 4, R.sp)));
  check Alcotest.string "addi" "addi $t0, $t0, 1"
    (I.to_string (I.Alu (I.Add, t0, t0, I.Imm 1)))

(* ---- assembler ---- *)

let test_assemble_basic () =
  let open Mips.Asm in
  let body =
    assemble
      [
        Ins (I.Li (t0, 1));
        Lab "loop";
        Ins (I.Alu (I.Add, t0, t0, I.Imm 1));
        Ins (I.Bne (t0, t1, "loop"));
        Ins I.Ret;
      ]
  in
  checki "length" 4 (Array.length body);
  checkb "branch resolved" true (body.(2) = I.Bne (t0, t1, 1))

let test_assemble_trivial_jump_dropped () =
  let open Mips.Asm in
  let body =
    assemble
      [ Ins (I.Li (t0, 1)); Ins (I.J "next"); Lab "next"; Ins I.Ret ]
  in
  checki "trivial jump dropped" 2 (Array.length body)

let test_assemble_jump_kept () =
  let open Mips.Asm in
  let body =
    assemble
      [
        Ins (I.J "skip");
        Ins (I.Li (t0, 1));
        Lab "skip";
        Ins I.Ret;
      ]
  in
  checki "jump kept" 3 (Array.length body);
  checkb "resolves to 2" true (body.(0) = I.J 2)

let test_assemble_errors () =
  let open Mips.Asm in
  (try
     ignore (assemble [ Ins (I.J "nowhere"); Ins I.Ret ]);
     Alcotest.fail "expected Unknown_label"
   with Unknown_label "nowhere" -> ());
  try
    ignore (assemble [ Lab "x"; Ins I.Ret; Lab "x" ]);
    Alcotest.fail "expected Duplicate_label"
  with Duplicate_label "x" -> ()

let test_assemble_label_at_end () =
  let open Mips.Asm in
  let body = assemble [ Ins (I.J "end"); Ins (I.Li (t0, 1)); Lab "end" ] in
  (* a defensive halt is appended so the label stays in range *)
  checkb "padded" true (body.(Array.length body - 1) = I.Halt)

(* ---- programs ---- *)

let mkproc name items = (name, items)

let test_program_link () =
  let open Mips.Asm in
  let main = mkproc "main" [ Ins (I.Jal "helper"); Ins I.Ret ] in
  let helper = mkproc "helper" [ Ins I.Ret ] in
  let prog = Mips.Program.make ~entry:"main" [ main; helper ] in
  checki "entry" 0 prog.entry;
  checki "procs" 2 (Array.length prog.procs);
  checki "code size" 3 (Mips.Program.code_size prog);
  checki "proc index" 1 (Mips.Program.proc_index prog "helper");
  checkb "find" true ((Mips.Program.find_proc prog "helper").index = 1)

let test_program_unknown_callee () =
  let open Mips.Asm in
  try
    ignore
      (Mips.Program.make ~entry:"main"
         [ mkproc "main" [ Ins (I.Jal "ghost"); Ins I.Ret ] ]);
    Alcotest.fail "expected Unknown_procedure"
  with Mips.Program.Unknown_procedure "ghost" -> ()

let test_static_branch_count () =
  let open Mips.Asm in
  let main =
    mkproc "main"
      [
        Ins (I.Beq (t0, t1, "a"));
        Lab "a";
        Ins (I.Bz (I.Gez, t0, "a"));
        Ins (I.J "a");
        Ins I.Ret;
      ]
  in
  let prog = Mips.Program.make ~entry:"main" [ main ] in
  checki "branches" 2 (Mips.Program.static_branch_count prog)

(* ---- qcheck properties ---- *)

let arbitrary_insn =
  let open QCheck.Gen in
  let reg = map R.of_int (int_range 0 31) in
  let freg = map F.of_int (int_range 0 31) in
  let lab = int_range 0 20 in
  oneof
    [
      map3 (fun a b c -> I.Alu (I.Add, a, b, I.Reg c)) reg reg reg;
      map2 (fun a n -> I.Li (a, n)) reg (int_range (-100) 100);
      map3 (fun a n b -> I.Lw (a, n, b)) reg (int_range 0 64) reg;
      map3 (fun a n b -> I.Sw (a, n, b)) reg (int_range 0 64) reg;
      map3 (fun a b l -> I.Beq (a, b, l)) reg reg lab;
      map2 (fun a l -> I.Bz (I.Ltz, a, l)) reg lab;
      map (fun l -> I.J l) lab;
      return I.Ret;
      return (I.Alu (I.Add, R.zero, R.zero, I.Imm 0));
      map2 (fun a b -> I.Fcmp (I.Flt, a, b)) freg freg;
      map2 (fun a b -> I.Falu (I.Fadd, a, a, b)) freg freg;
    ]
  |> QCheck.make

let prop_map_label_id =
  QCheck.Test.make ~name:"map_label Fun.id is identity" ~count:200
    arbitrary_insn (fun i -> I.map_label Fun.id i = i)

let prop_defs_disjoint_zero =
  QCheck.Test.make ~name:"instructions never define $zero-only nonsense"
    ~count:200 arbitrary_insn (fun i ->
      (* defs and uses are always valid registers *)
      List.for_all (fun r -> R.to_int r >= 0 && R.to_int r < 32) (I.defs i)
      && List.for_all (fun r -> R.to_int r >= 0 && R.to_int r < 32) (I.uses i))

let prop_branch_iff_target =
  QCheck.Test.make ~name:"cond branches have targets" ~count:200 arbitrary_insn
    (fun i ->
      if I.is_cond_branch i then I.branch_target i <> None
      else
        (match i with I.J _ -> true | _ -> false)
        || I.branch_target i = None)

let tests =
  [
    ( "registers",
      [
        Alcotest.test_case "names" `Quick test_reg_names;
        Alcotest.test_case "bounds" `Quick test_reg_bounds;
        Alcotest.test_case "distinct" `Quick test_reg_distinct;
        Alcotest.test_case "freg" `Quick test_freg;
      ] );
    ( "insn",
      [
        Alcotest.test_case "is_branch" `Quick test_is_branch;
        Alcotest.test_case "block_end" `Quick test_block_end;
        Alcotest.test_case "store/load" `Quick test_store_load;
        Alcotest.test_case "uses/defs" `Quick test_uses_defs;
        Alcotest.test_case "branch_target" `Quick test_branch_target;
        Alcotest.test_case "map_label" `Quick test_map_label;
        Alcotest.test_case "to_string" `Quick test_to_string;
      ] );
    ( "asm",
      [
        Alcotest.test_case "basic" `Quick test_assemble_basic;
        Alcotest.test_case "trivial jump" `Quick test_assemble_trivial_jump_dropped;
        Alcotest.test_case "jump kept" `Quick test_assemble_jump_kept;
        Alcotest.test_case "errors" `Quick test_assemble_errors;
        Alcotest.test_case "label at end" `Quick test_assemble_label_at_end;
      ] );
    ( "program",
      [
        Alcotest.test_case "link" `Quick test_program_link;
        Alcotest.test_case "unknown callee" `Quick test_program_unknown_callee;
        Alcotest.test_case "branch count" `Quick test_static_branch_count;
      ] );
    ( "properties",
      List.map qcheck
        [ prop_map_label_id; prop_defs_disjoint_zero; prop_branch_iff_target ]
    );
  ]
