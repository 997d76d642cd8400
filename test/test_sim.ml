(* Simulator tests: machine semantics, edge profiling, trace-run
   accounting, and flow-conservation properties. *)

open Check

let compile src = Minic.Frontend.compile src
let ds ?(ints = [||]) ?(floats = [||]) () =
  Sim.Dataset.make ~floats ~name:"t" ints

let loopy_src =
  {|
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 100; i++) {
    if ((i & 1) == 0) {
      s += i;
    }
  }
  print(s);
  return 0;
}
|}

let test_stats_deterministic () =
  let prog = compile loopy_src in
  let s1 = Sim.Machine.run prog (ds ()) in
  let s2 = Sim.Machine.run prog (ds ()) in
  checki "same instrs" s1.instr_count s2.instr_count;
  checki "same checksum" s1.checksum s2.checksum;
  checkb "nonzero" true (s1.instr_count > 100)

let test_instr_limit () =
  let prog = compile "int main() { while (1) { } return 0; }" in
  try
    ignore (Sim.Machine.run ~max_instrs:10_000 prog (ds ()));
    Alcotest.fail "expected instruction-limit fault"
  with Sim.Machine.Out_of_fuel msg ->
    checkb "mentions limit" true
      (String.length msg > 0
      && String.length msg >= String.length "instruction limit"
      )

let test_fuel_exactness () =
  (* a program that halts in exactly N instructions must succeed with
     fuel N and run out with fuel N - 1, saying where it stopped *)
  let prog = compile loopy_src in
  let n = (Sim.Machine.run prog (ds ())).instr_count in
  let exact = Sim.Machine.run ~max_instrs:n prog (ds ()) in
  checki "limit N succeeds" n exact.instr_count;
  match Sim.Machine.run ~max_instrs:(n - 1) prog (ds ()) with
  | _ -> Alcotest.fail "limit N-1 must run out of fuel"
  | exception Sim.Machine.Out_of_fuel msg ->
    Alcotest.(check string) "out-of-fuel text"
      "out of fuel: instruction limit exceeded (at main+34, 1220 \
       instructions executed)"
      msg

let test_dataset_of_seed () =
  let d1 = Sim.Dataset.of_seed ~name:"a" ~size:64 ~seed:7 in
  let d2 = Sim.Dataset.of_seed ~name:"b" ~size:64 ~seed:7 in
  let d3 = Sim.Dataset.of_seed ~name:"c" ~size:64 ~seed:8 in
  checkb "same seed same data" true (d1.ints = d2.ints && d1.floats = d2.floats);
  checkb "different seed different data" true (d1.ints <> d3.ints);
  checkb "ints in range" true
    (Array.for_all (fun v -> v >= 0 && v < 0x100000) d1.ints);
  checkb "floats in range" true
    (Array.for_all (fun v -> v >= 0. && v < 1.) d1.floats)

let test_reads () =
  let prog =
    compile "int main() { print(read() + read()); print(readf()); return 0; }"
  in
  let stats = Sim.Machine.run prog (ds ~ints:[| 4; 5 |] ~floats:[| 0.25 |] ()) in
  checki "ints read" 2 stats.ints_read;
  checki "floats read" 1 stats.floats_read;
  checki "checksum" (((9 * 31) + 1024) land 0x3FFFFFFFFFFF) stats.checksum

let test_profile_counts () =
  let prog = compile loopy_src in
  let profile = Sim.Profile.run prog (ds ()) in
  (* total branch executions are consistent between run and counts *)
  let total = Sim.Profile.branch_execs profile in
  checkb "many branches" true (total > 150);
  (* every count is non-negative and attached to a branch pc *)
  Array.iteri
    (fun p row ->
      Array.iteri
        (fun pc c ->
          if c > 0 then
            checkb "count only at branch" true
              (Mips.Insn.is_cond_branch prog.procs.(p).body.(pc)))
        row)
    profile.taken

(* Flow conservation: for each branch, taken + fall counts equal the
   number of times its block completed. We verify the weaker but
   program-independent invariant that loop-guard + backedge counts are
   consistent with the loop's iteration total. *)
let test_profile_loop_counts () =
  let prog = compile loopy_src in
  let profile = Sim.Profile.run prog (ds ()) in
  let analyses = Cfg.Analysis.of_program prog in
  let db =
    Predict.Database.make prog analyses ~taken:profile.taken ~fall:profile.fall
  in
  (* the for-loop in main iterates 100 times: its backedge branch
     executes 100 times (99 taken + 1 fall-through exit) *)
  let main_idx = Mips.Program.proc_index prog "main" in
  let loop_branches =
    Array.to_list db.branches
    |> List.filter (fun (b : Predict.Database.branch) ->
           b.proc = main_idx && b.cls = Predict.Classify.Loop_branch)
  in
  checkb "has a loop branch" true (loop_branches <> []);
  List.iter
    (fun (b : Predict.Database.branch) ->
      checki "iterates 100x" 100 (Predict.Database.exec b))
    loop_branches

let test_trace_partition () =
  let prog = compile loopy_src in
  let analyses = Cfg.Analysis.of_program prog in
  let profile = Sim.Profile.run prog (ds ()) in
  let db =
    Predict.Database.make prog analyses ~taken:profile.taken ~fall:profile.fall
  in
  let bits predictor =
    let arr =
      Array.map
        (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) false)
        prog.procs
    in
    Array.iter
      (fun (br : Predict.Database.branch) -> arr.(br.proc).(br.pc) <- predictor br)
      db.branches;
    arr
  in
  let results =
    Sim.Trace_run.run prog (ds ())
      [
        ("all-taken", bits (fun _ -> true));
        ("all-fall", bits (fun _ -> false));
        ("perfect", bits Predict.Combined.perfect_predict);
      ]
  in
  List.iter
    (fun (r : Sim.Trace_run.result) ->
      (* the bucketed sequences partition the whole instruction trace *)
      checki
        ("sum of lengths = instrs for " ^ r.label)
        r.instr_count
        (Array.fold_left ( + ) 0 r.seq_sums);
      checki
        ("sum of counts = sequences for " ^ r.label)
        r.breaks
        (Array.fold_left ( + ) 0 r.seq_counts);
      checkb "misses <= execs" true (r.cond_misses <= r.cond_execs))
    results;
  (* same execution: identical instruction and branch counts *)
  match results with
  | a :: rest ->
    List.iter
      (fun (r : Sim.Trace_run.result) ->
        checki "same instrs" a.instr_count r.instr_count;
        checki "same cond execs" a.cond_execs r.cond_execs)
      rest
  | [] -> Alcotest.fail "no results"

let test_trace_perfect_beats_naive () =
  let prog = compile loopy_src in
  let analyses = Cfg.Analysis.of_program prog in
  let profile = Sim.Profile.run prog (ds ()) in
  let db =
    Predict.Database.make prog analyses ~taken:profile.taken ~fall:profile.fall
  in
  let bits predictor =
    let arr =
      Array.map
        (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) false)
        prog.procs
    in
    Array.iter
      (fun (br : Predict.Database.branch) -> arr.(br.proc).(br.pc) <- predictor br)
      db.branches;
    arr
  in
  let results =
    Sim.Trace_run.run prog (ds ())
      [
        ("perfect", bits Predict.Combined.perfect_predict);
        ("all-taken", bits (fun _ -> true));
      ]
  in
  match results with
  | [ perfect; taken ] ->
    checkb "perfect has fewest misses" true
      (perfect.cond_misses <= taken.cond_misses)
  | _ -> Alcotest.fail "bad result arity"

let test_switch_is_break () =
  let prog =
    compile
      {|
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 50; i++) {
    switch (i % 3) {
      case 0: s += 1; break;
      case 1: s += 2; break;
      default: s += 3;
    }
  }
  print(s);
  return 0;
}
|}
  in
  let bits =
    Array.map
      (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) true)
      prog.procs
  in
  let results = Sim.Trace_run.run prog (ds ()) [ ("x", bits) ] in
  match results with
  | [ r ] ->
    (* at least one break per switch execution, even for a predictor
       that never misses a conditional *)
    checkb "indirect jumps break control" true (r.breaks >= 50)
  | _ -> Alcotest.fail "bad arity"


(* Recording and replaying a run gives the result lists of break
   accounting done while the program executes (the fuzzer's
   trace-replay oracle), on a fixed corpus: the two traced workloads
   with jump tables, pinned to their transfer counts so the corpus
   keeps exercising them, and a hand-built program with forms the
   generator may never emit. *)
let check_replay what prog input =
  List.iter
    (fun d -> Alcotest.failf "%s: %a" what Fuzz.Oracle.pp_divergence d)
    (Fuzz.Oracle.check_trace_replay prog input)

let test_replay_workloads () =
  List.iter
    (fun (name, jumps, branches) ->
      let wl = Workloads.Registry.find name in
      let prog = Workloads.Workload.compile wl in
      let input = Workloads.Workload.primary_dataset wl in
      let r = Sim.Trace_run.record prog input in
      checki (name ^ ": jump-table transfers") jumps
        (Sim.Trace_run.jump_table_transfers r);
      checki (name ^ ": conditional branches") branches
        (Sim.Profile.branch_execs (Sim.Trace_run.profile r));
      check_replay name prog input)
    [ ("xlisp", 10_956, 132_862); ("spice2g6", 19_260, 2_855_517) ]

(* [main] calls [f] five times through a jump table and a fused
   [slt]/[bne] loop test; [f] halts when the loop index equals the
   value read, so a dataset holding 3 halts at call depth 1 and one
   holding -1 ends with [main]'s return at depth 0. *)
let test_replay_hand_built () =
  let open Mips.Asm in
  let module I = Mips.Insn in
  let r = Mips.Reg.t in
  let zero = Mips.Reg.zero in
  let main =
    ( "main",
      [ Ins (I.ReadI (r 2)); Ins (I.Li (r 0, 0)); Ins (I.Li (r 3, 5));
        Lab "loop"; Ins (I.Jal "f");
        Ins (I.Alu (I.Add, r 0, r 0, I.Imm 1));
        Ins (I.Alu (I.Rem, r 4, r 0, I.Imm 3));
        Ins (I.Jtab (r 4, [| "a"; "b"; "next" |]));
        Lab "a"; Ins (I.J "next");
        Lab "b"; Ins (I.Alu (I.Add, r 5, r 5, I.Imm 1));
        Lab "next"; Ins (I.Alu (I.Slt, r 1, r 0, I.Reg (r 3)));
        Ins (I.Bne (r 1, zero, "loop"));
        Ins I.Ret ] )
  in
  let f =
    ( "f",
      [ Ins (I.Alu (I.Sub, r 6, r 0, I.Reg (r 2)));
        Ins (I.Beq (r 6, zero, "h")); Ins I.Ret;
        Lab "h"; Ins I.Halt ] )
  in
  let prog = Mips.Program.make ~entry:"main" [ main; f ] in
  let d = Sim.Decode.of_program prog in
  checkb "a fused slt/bne" true
    (Array.exists (( = ) Sim.Decode.Slt_rr_bne) d.procs.(0).ops);
  List.iter
    (fun (mode, instrs) ->
      let input = ds ~ints:[| mode |] () in
      let rec_ = Sim.Trace_run.record ~decoded:d prog input in
      checki
        (Printf.sprintf "mode %d: instructions" mode)
        instrs (Sim.Trace_run.profile rec_).stats.instr_count;
      check_replay (Printf.sprintf "mode %d" mode) prog input)
    [ (3, 36); (-1, 52) ]

(* ---- raw machine edge cases (hand-assembled programs) ---- *)

(* The filler of the hand-built programs: a pure write to [$zero],
   which decodes to [Decode.Nop]. *)
let nop = Mips.Insn.Alu (Add, Mips.Reg.zero, Mips.Reg.zero, Imm 0)

let test_machine_jtab_bounds () =
  let open Mips.Asm in
  let module I = Mips.Insn in
  let t0 = Mips.Reg.t 0 in
  let main =
    ( "main",
      [ Ins (I.Li (t0, 9)); Ins (I.Jtab (t0, [| "a"; "b" |])); Lab "a";
        Ins I.Ret; Lab "b"; Ins I.Ret ] )
  in
  let prog = Mips.Program.make ~entry:"main" [ main ] in
  try
    ignore (Sim.Machine.run prog (ds ()));
    Alcotest.fail "expected jump-table fault"
  with Sim.Machine.Fault _ -> ()

(* every fault the interpreter raises, one hand-assembled program
   each, with its full text: what went wrong, then the procedure, pc
   and instruction count at the faulting instruction *)
let fault_cases =
  let open Mips.Asm in
  let module I = Mips.Insn in
  let t0 = Mips.Reg.t 0 and t1 = Mips.Reg.t 1 in
  let f0 = Mips.Freg.temp 0 in
  let zero = Mips.Reg.zero in
  let mem_words = Mips.Program.mem_words in
  let main body = [ ("main", List.map (fun i -> Ins i) body) ] in
  let fault msg = Sim.Machine.Fault msg in
  [
    ( fault "division by zero (at main+1, 2 instructions executed)",
      main [ I.Li (t0, 7); I.Alu (I.Div, t1, t0, I.Reg zero); I.Ret ] );
    ( fault "division by zero (at main+1, 2 instructions executed)",
      main [ I.Li (t0, 7); I.Alu (I.Div, t1, t0, I.Imm 0); I.Ret ] );
    ( fault "remainder by zero (at main+1, 2 instructions executed)",
      main [ I.Li (t0, 7); I.Alu (I.Rem, t1, t0, I.Reg zero); I.Ret ] );
    ( fault "remainder by zero (at main+1, 2 instructions executed)",
      main [ I.Li (t0, 7); I.Alu (I.Rem, t1, t0, I.Imm 0); I.Ret ] );
    ( fault "load from bad address -1 (at main+1, 2 instructions executed)",
      main [ I.Li (t0, -1); I.Lw (t1, 0, t0); I.Ret ] );
    ( fault
        "store to bad address 4194565 (at main+1, 2 instructions executed)",
      main [ I.Li (t0, mem_words); I.Sw (t1, 5, t0); I.Ret ] );
    ( fault "f-load from bad address -3 (at main+1, 2 instructions executed)",
      main [ I.Li (t0, -3); I.Ld (f0, 0, t0); I.Ret ] );
    ( fault
        "f-store to bad address 4194560 (at main+1, 2 instructions executed)",
      main [ I.Li (t0, mem_words); I.Sd (f0, 0, t0); I.Ret ] );
    ( fault "float-to-int out of range (at main+1, 2 instructions executed)",
      main [ I.Fli (f0, 1e18); I.Ftoi (t0, f0); I.Ret ] );
    ( fault "float-to-int out of range (at main+1, 2 instructions executed)",
      main [ I.Fli (f0, Float.nan); I.Ftoi (t0, f0); I.Ret ] );
    ( fault
        "jump table index 9 out of range (at main+1, 2 instructions executed)",
      [ ( "main",
          [ Ins (I.Li (t0, 9)); Ins (I.Jtab (t0, [| "a"; "b" |])); Lab "a";
            Ins I.Ret; Lab "b"; Ins I.Ret ] ) ] );
    ( fault "call stack overflow (at main+0, 65537 instructions executed)",
      main [ I.Jal "main"; I.Ret ] );
    ( fault "fell off the end of procedure (at f+1, 2 instructions executed)",
      [ ("main", [ Ins (I.Jal "f"); Ins I.Ret ]); ("f", [ Ins nop ]) ] );
    ( Sim.Machine.Out_of_fuel
        "out of fuel: instruction limit exceeded (at main+0, 100000 \
         instructions executed)",
      [ ("main", [ Lab "l"; Ins (I.J "l") ]) ] );
    ( fault
        "fell off the end of procedure (at main+1, 2 instructions executed)",
      [ ("main", [ Ins (I.Jal "f") ]); ("f", [ Ins I.Ret ]) ] );
    (* the loop re-enters at [l], mid-way through the straight-line
       run that starts at slot 0, and the budget ends inside that run *)
    ( Sim.Machine.Out_of_fuel
        "out of fuel: instruction limit exceeded (at main+4, 100000 \
         instructions executed)",
      [ ( "main",
          [ Ins (I.Li (t0, 0)); Lab "l"; Ins nop; Ins nop; Ins nop;
            Ins (I.J "l") ] ) ] );
    (* a write to $zero that can fault is not decoded away *)
    ( fault "load from bad address -1 (at main+1, 2 instructions executed)",
      main [ I.Li (t0, -1); I.Lw (zero, 0, t0); I.Ret ] );
    ( fault "division by zero (at main+1, 2 instructions executed)",
      main [ I.Li (t0, 7); I.Alu (I.Div, zero, t0, I.Reg zero); I.Ret ] );
  ]

(* A procedure body built without [Mips.Asm], which pads a label at the
   very end with a [Halt]: here a target may be the slot just past the
   last instruction, so a transfer there falls off the procedure. *)
let raw_program procs =
  {
    Mips.Program.procs =
      Array.of_list
        (List.mapi
           (fun index (name, body) ->
             { Mips.Program.name; index; body = Array.of_list body })
           procs);
    entry = 0;
    idata = [];
    fdata = [];
  }

(* every transfer that can land one past the last slot *)
let end_target_cases =
  let module I = Mips.Insn in
  let t0 = Mips.Reg.t 0 and zero = Mips.Reg.zero in
  let fell =
    Sim.Machine.Fault
      "fell off the end of procedure (at main+3, 2 instructions executed)"
  in
  [
    (fell, [ ("main", [ I.Li (t0, 1); I.Bne (t0, zero, 3); I.Halt ]) ]);
    (fell, [ ("main", [ nop; I.J 3; I.Halt ]) ]);
    (fell, [ ("main", [ I.Li (t0, 1); I.Jtab (t0, [| 2; 3 |]); I.Halt ]) ]);
  ]

(* a target outside [0, n] has no slot to land on: decoding rejects it *)
let test_target_out_of_range () =
  let module I = Mips.Insn in
  List.iter
    (fun body ->
      match Sim.Decode.of_program (raw_program [ ("main", body) ]) with
      | _ -> Alcotest.fail "expected the decoder to reject the target"
      | exception Invalid_argument _ -> ())
    [ [ nop; I.J 3 ]; [ I.Bfp (true, -1); I.Halt ];
      [ I.Jtab (Mips.Reg.zero, [| 0; 3 |]); I.Halt ] ]

let test_fault_messages () =
  let check expected prog =
    let got =
      match Sim.Machine.run ~max_instrs:100_000 prog (ds ()) with
      | _ -> "completed"
      | exception e -> Printexc.to_string e
    in
    let expected = Printexc.to_string expected in
    Alcotest.(check string) expected expected got
  in
  List.iter
    (fun (expected, procs) ->
      check expected (Mips.Program.make ~entry:"main" procs))
    fault_cases;
  List.iter
    (fun (expected, procs) -> check expected (raw_program procs))
    end_target_cases

(* Every fuel limit from 1 up to two past the first limit at which a
   program no longer runs out of fuel, on three small programs: a
   MiniC loop that calls a function and then divides by zero in the
   middle of a straight-line run, a loop whose branch lands in the
   middle of a straight-line run, and a program that ends by falling
   off a procedure.  One line per run — [ok <instrs> <checksum>] or
   the full exception — and one digest over all of them. *)
let sweep_runs = 565
let sweep_digest = "5b0799c1aea110236b445de332fbf0d3"

let sweep_programs () =
  let open Mips.Asm in
  let module I = Mips.Insn in
  let t0 = Mips.Reg.t 0 and t1 = Mips.Reg.t 1 and v0 = Mips.Reg.v0 in
  let divides =
    compile
      {|
int f(int x) { return x * 3 + 1; }
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 20; i++) {
    s = s + f(i);
    s = s + 1000 / (12 - i);
    print(s);
  }
  return 0;
}
|}
  in
  let mid_run =
    Mips.Program.make ~entry:"main"
      [
        ( "main",
          [ Ins (I.Li (t0, 5)); Ins (I.Li (t1, 0)); Lab "l";
            Ins (I.Alu (I.Add, t1, t1, I.Reg t0)); Ins (I.PrintI t1);
            Ins (I.Alu (I.Sub, t0, t0, I.Imm 1)); Ins (I.Bz (I.Gtz, t0, "l"));
            Ins (I.Jal "g"); Ins (I.PrintI v0); Ins I.Halt ] );
        ( "g",
          [ Ins (I.Li (v0, 7)); Ins (I.Alu (I.Add, v0, v0, I.Reg t1));
            Ins I.Ret ] );
      ]
  in
  let falls_off =
    Mips.Program.make ~entry:"main"
      [
        ( "main",
          [ Ins (I.Li (t0, 3)); Lab "l"; Ins (I.Jal "f");
            Ins (I.Alu (I.Sub, t0, t0, I.Imm 1)); Ins (I.Bz (I.Gtz, t0, "l"));
            Ins (I.PrintI t0); Ins (I.Jal "g"); Ins I.Ret ] );
        ( "f",
          [ Ins (I.Alu (I.Add, v0, v0, I.Reg t0)); Ins (I.PrintI v0);
            Ins I.Ret ] );
        ("g", [ Ins (I.Li (v0, 1)); Ins nop ]);
      ]
  in
  [ divides; mid_run; falls_off ]

let test_fuel_sweep () =
  let b = Buffer.create 4096 and runs = ref 0 in
  List.iter
    (fun prog ->
      let d = Sim.Decode.of_program prog in
      let rec sweep fuel stop =
        if fuel <= stop then begin
          incr runs;
          let stop =
            match Sim.Machine.run_decoded ~max_instrs:fuel d (ds ()) with
            | s ->
              Printf.bprintf b "ok %d %d\n" s.instr_count s.checksum;
              min stop (fuel + 2)
            | exception (Sim.Machine.Out_of_fuel _ as e) ->
              Printf.bprintf b "%s\n" (Printexc.to_string e);
              stop
            | exception (Sim.Machine.Fault _ as e) ->
              Printf.bprintf b "%s\n" (Printexc.to_string e);
              min stop (fuel + 2)
          in
          sweep (fuel + 1) stop
        end
      in
      sweep 1 100_000)
    (sweep_programs ());
  checki "runs" sweep_runs !runs;
  Alcotest.(check string) "digest of every outcome" sweep_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Every pair the decoder fuses, at slots 1 and 2 of a program that
   starts with [li $t0, v] and ends [print; ret]: the pair must be
   fused there, a fuel limit of 2 must stop the run before the second
   half (at main+2), a load in the second half must fault there with
   both halves counted, and the branch of [slt; bne] must be observed
   at main+2 after 3 instructions. *)
let fused_cases =
  let module I = Mips.Insn in
  let module D = Sim.Decode in
  let t0 = Mips.Reg.t 0 and t1 = Mips.Reg.t 1 and t2 = Mips.Reg.t 2 in
  let zero = Mips.Reg.zero and f0 = Mips.Freg.temp 0 in
  let lw = Some "load from bad address -1" in
  [
    ("add_ri; move", D.Add_ri_move, I.Alu (I.Add, t1, t0, I.Imm 3),
     I.Move (t2, t1), None);
    ("move; add_rr", D.Move_add_rr, I.Move (t1, t0),
     I.Alu (I.Add, t2, t1, I.Reg t0), None);
    ("add_rr; ld", D.Add_rr_ld, I.Alu (I.Add, t1, t0, I.Reg zero),
     I.Ld (f0, 0, t1), Some "f-load from bad address -1");
    ("move; add_ri", D.Move_add_ri, I.Move (t1, t0),
     I.Alu (I.Add, t2, t1, I.Imm 3), None);
    ("move; move", D.Move_move, I.Move (t1, t0), I.Move (t2, t1), None);
    ("add_rr; lw", D.Add_rr_lw, I.Alu (I.Add, t1, t0, I.Reg zero),
     I.Lw (t2, 0, t1), lw);
    ("slt_rr; bne", D.Slt_rr_bne, I.Alu (I.Slt, t1, zero, I.Reg t0),
     I.Bne (t1, zero, "out"), None);
    ("move; lw", D.Move_lw, I.Move (t1, t0), I.Lw (t2, 0, t1), lw);
  ]

let test_fused_pairs () =
  let module I = Mips.Insn in
  let t0 = Mips.Reg.t 0 and t2 = Mips.Reg.t 2 in
  let prog v first second =
    Mips.Program.make ~entry:"main"
      [ ( "main",
          Mips.Asm.
            [ Ins (I.Li (t0, v)); Ins first; Ins second; Ins (I.PrintI t2);
              Lab "out"; Ins I.Ret ] ) ]
  in
  let outcome ?on_branch ~fuel prog =
    match Sim.Machine.run ?on_branch ~max_instrs:fuel prog (ds ()) with
    | s -> Printf.sprintf "ok %d" s.instr_count
    | exception e -> Printexc.to_string e
  in
  let text = Printexc.to_string in
  List.iter
    (fun (name, fused, first, second, load_fault) ->
      let check what = Alcotest.(check string) (name ^ ": " ^ what) in
      let good = prog 5 first second in
      checkb (name ^ ": fused at main+1") true
        ((Sim.Decode.of_program good).procs.(0).ops.(1) = fused);
      check "fuel ends before the second half"
        (text
           (Sim.Machine.Out_of_fuel
              "out of fuel: instruction limit exceeded (at main+2, 2 \
               instructions executed)"))
        (outcome ~fuel:2 good);
      Option.iter
        (fun msg ->
          check "fault in the second half"
            (text
               (Sim.Machine.Fault
                  (msg ^ " (at main+2, 3 instructions executed)")))
            (outcome ~fuel:100 (prog (-1) first second)))
        load_fault;
      if fused = Sim.Decode.Slt_rr_bne then begin
        let seen = ref [] in
        let on_branch (m : Sim.Machine.t) ~taken =
          seen := (m.pc, m.instrs, taken) :: !seen
        in
        check "runs to the end" "ok 4" (outcome ~on_branch ~fuel:100 good);
        checkb (name ^ ": branch seen at main+2 after 3 instructions") true
          (!seen = [ (2, 3, true) ])
      end
      else check "runs to the end" "ok 5" (outcome ~fuel:100 good))
    fused_cases

let test_machine_zero_register () =
  let open Mips.Asm in
  let module I = Mips.Insn in
  (* writes to $zero are discarded *)
  let main =
    ( "main",
      [ Ins (I.Li (Mips.Reg.zero, 99)); Ins (I.PrintI Mips.Reg.zero);
        Ins I.Ret ] )
  in
  let prog = Mips.Program.make ~entry:"main" [ main ] in
  let stats = Sim.Machine.run prog (ds ()) in
  checki "$zero stays zero" 0 stats.checksum

let test_machine_float_roundtrip () =
  let open Mips.Asm in
  let module I = Mips.Insn in
  let f0 = Mips.Freg.temp 0 and f1 = Mips.Freg.temp 1 in
  let t0 = Mips.Reg.t 0 in
  let main =
    ( "main",
      [
        Ins (I.Fli (f0, 2.5));
        Ins (I.Fli (f1, 4.0));
        Ins (I.Falu (I.Fmul, f0, f0, f1));   (* 10.0 *)
        Ins (I.Ftoi (t0, f0));
        Ins (I.PrintI t0);
        Ins (I.Fabs (f0, f0));
        Ins (I.Fneg (f0, f0));
        Ins (I.PrintF f0);                   (* -10.0 *)
        Ins I.Ret;
      ] )
  in
  let prog = Mips.Program.make ~entry:"main" [ main ] in
  let stats = Sim.Machine.run prog (ds ()) in
  let expect =
    List.fold_left
      (fun a v -> ((a * 31) + v) land 0x3FFFFFFFFFFF)
      0 [ 10; -10 * 4096 ]
  in
  checki "float ops" expect stats.checksum

(* ---- scratch memory ----

   Every run maps its own zero-filled planes, so nothing a run writes
   may be seen by the next one, on the same domain or another.  The
   writer stores non-zero words at the edges of the layout's regions
   and either side of the midpoint, in both planes; the reader loads
   and prints every one of them. *)
let edge_addrs =
  let mid = Mips.Program.mem_words / 2 in
  [ Mips.Program.gp_base; Mips.Program.heap_base; mid - 1; mid;
    Mips.Program.stack_base - 1; Mips.Program.mem_words - 1 ]

let writer_body =
  let module I = Mips.Insn in
  let t0 = Mips.Reg.t 0 and t1 = Mips.Reg.t 1 in
  let f0 = Mips.Freg.temp 0 in
  List.concat_map
    (fun a ->
      [ I.Li (t0, a); I.Li (t1, a + 7); I.Sw (t1, 0, t0);
        I.Fli (f0, float_of_int a +. 0.5); I.Sd (f0, 0, t0) ])
    edge_addrs

let reader_body =
  let module I = Mips.Insn in
  let t0 = Mips.Reg.t 0 and t1 = Mips.Reg.t 1 in
  let f0 = Mips.Freg.temp 0 in
  List.concat_map
    (fun a ->
      [ I.Li (t0, a); I.Lw (t1, 0, t0); I.PrintI t1; I.Ld (f0, 0, t0);
        I.PrintF f0 ])
    edge_addrs

let asm body =
  Mips.Program.make ~entry:"main"
    [ ("main", List.map (fun i -> Mips.Asm.Ins i) (body @ [ Mips.Insn.Ret ])) ]

let checksum prog = (Sim.Machine.run prog (ds ())).checksum

let test_reuse_leaves_no_residue () =
  let writer = asm writer_body and reader = asm reader_body in
  checkb "the reader sees what a run wrote" true
    (checksum (asm (writer_body @ reader_body)) <> 0);
  checki "reader on fresh memory" 0
    (Domain.join (Domain.spawn (fun () -> checksum reader)));
  ignore (checksum writer);
  checki "reader right after the writer" 0 (checksum reader)

let vm_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
    List.find_map
      (fun line -> Scanf.sscanf_opt line "VmRSS: %d kB" Fun.id)
      (String.split_on_char '\n' status)

(* Require that [f ()], run on a fresh domain, grows VmRSS by less than
   [mib] MiB; skipped where /proc/self/status is unreadable. *)
let check_growth what ~mib f =
  let growth =
    Domain.join
      (Domain.spawn (fun () ->
           match vm_rss_kb () with
           | None -> None
           | Some before ->
             f ();
             Option.map (fun after -> after - before) (vm_rss_kb ())))
  in
  match growth with
  | None -> print_endline "skipped: VmRSS unreadable from /proc/self/status"
  | Some kb ->
    Printf.printf "resident growth of %s: %d kB\n" what kb;
    checkb (Printf.sprintf "resident growth < %d MiB" mib) true
      (kb < mib * 1024)

(* Memory planes become resident only where a program writes: a tiny
   program grows the process by far less than the planes' 2 x
   4,194,560 words. *)
let test_residency () =
  let prog = compile loopy_src in
  check_growth "one tiny run" ~mib:16 (fun () -> ignore (checksum prog))

(* A run's pages go back to the system once the GC finalises its
   planes, so many runs on one domain do not pile up resident memory.
   Each run below writes one word in each of 256 pages (1 MiB if kept);
   200 of them holding on to their pages would grow the process by
   some 200 MiB. *)
let page_writer_src =
  {|
int main() {
  int *p;
  int i;
  p = alloc(131072);
  for (i = 0; i < 131072; i = i + 512) {
    p[i] = i + 1;
  }
  print(p[512]);
  return 0;
}
|}

let test_bounded_residency () =
  let prog = compile page_writer_src in
  check_growth "200 page-writing runs" ~mib:32 (fun () ->
      for _ = 1 to 200 do
        ignore (checksum prog)
      done)

(* qcheck: profile counts respect exec = taken + fall >= 0 and perfect
   <= min direction over random small programs built from a template *)
let prop_profile_consistency =
  QCheck.Test.make ~name:"profile: perfect misses <= either direction"
    ~count:30
    QCheck.(make Gen.(int_range 1 60))
    (fun n ->
      let src =
        Printf.sprintf
          "int main() { int i; int s = 0; for (i = 0; i < %d; i++) { if (i %% \
           7 < 3) { s += i; } else { s -= i; } } print(s); return 0; }"
          n
      in
      let prog = compile src in
      let analyses = Cfg.Analysis.of_program prog in
      let profile = Sim.Profile.run prog (ds ()) in
      let db =
        Predict.Database.make prog analyses ~taken:profile.taken
          ~fall:profile.fall
      in
      Array.for_all
        (fun (b : Predict.Database.branch) ->
          let p = Predict.Database.perfect_misses b in
          p <= b.taken_count && p <= b.fall_count
          && Predict.Database.exec b = b.taken_count + b.fall_count)
        db.branches)

let tests =
  [
    ( "machine",
      [
        Alcotest.test_case "deterministic" `Quick test_stats_deterministic;
        Alcotest.test_case "instr limit" `Quick test_instr_limit;
        Alcotest.test_case "fuel exactness" `Quick test_fuel_exactness;
        Alcotest.test_case "fuel sweep" `Quick test_fuel_sweep;
        Alcotest.test_case "fused pairs under fuel and faults" `Quick
          test_fused_pairs;
        Alcotest.test_case "dataset of_seed" `Quick test_dataset_of_seed;
        Alcotest.test_case "reads" `Quick test_reads;
      ] );
    ( "profile",
      [
        Alcotest.test_case "counts" `Quick test_profile_counts;
        Alcotest.test_case "loop counts" `Quick test_profile_loop_counts;
      ] );
    ( "trace",
      [
        Alcotest.test_case "partition" `Quick test_trace_partition;
        Alcotest.test_case "perfect beats naive" `Quick
          test_trace_perfect_beats_naive;
        Alcotest.test_case "switch breaks" `Quick test_switch_is_break;
        Alcotest.test_case "replay = direct, traced workloads" `Quick
          test_replay_workloads;
        Alcotest.test_case "replay = direct, hand-built" `Quick
          test_replay_hand_built;
      ] );
    ( "machine edge cases",
      [
        Alcotest.test_case "jtab bounds" `Quick test_machine_jtab_bounds;
        Alcotest.test_case "fault messages" `Quick test_fault_messages;
        Alcotest.test_case "target out of range" `Quick
          test_target_out_of_range;
        Alcotest.test_case "zero register" `Quick test_machine_zero_register;
        Alcotest.test_case "float ops" `Quick test_machine_float_roundtrip;
      ] );
    ( "scratch memory",
      [
        Alcotest.test_case "reuse leaves no residue at the edges" `Quick
          test_reuse_leaves_no_residue;
        Alcotest.test_case "residency follows what a run writes" `Quick
          test_residency;
        Alcotest.test_case "residency stays bounded over many runs" `Quick
          test_bounded_residency;
      ] );
    ( "properties",
      [ qcheck prop_profile_consistency ] );
  ]
