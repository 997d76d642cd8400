(* Tests for the pre-decoded simulator: decoding up front agrees with
   decoding on demand, scratch-memory reuse leaves no residue, a fixed
   batch of fuzz-generated programs keeps its pinned statistics and
   edge profiles, and every decoded body has its sentinel and the
   straight-line run lengths the interpreter's fuel check relies on. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

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
let fuzz_instrs = 428722
let fuzz_digest = "d90652d0c56e85de18e38b8426bd2c47"

let test_fuzzed_programs_pinned () =
  let dataset = Sim.Dataset.make ~name:"fuzz" [||] in
  let b = Buffer.create (1 lsl 16) in
  let instrs = ref 0 in
  for i = 0 to fuzz_cases - 1 do
    let cs = Fuzz.Gen.case_seed ~seed:1993 ~index:i in
    let size = 8 + (i mod 13) in
    let src = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:cs ~size) in
    match Sim.Profile.run (Minic.Frontend.compile src) dataset with
    | exception e -> Alcotest.failf "case %d: %s" i (Printexc.to_string e)
    | p ->
      instrs := !instrs + p.stats.instr_count;
      Printf.bprintf b "case %d\n" i;
      Edge_digest.render_stats b p.stats;
      Edge_digest.render_edges b p
  done;
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
   to [Fuel_trap]; only the interpreter plants it. *)
let is_transfer : int Mips.Insn.t -> bool = function
  | Beq _ | Bne _ | Bz _ | Bfp _ | J _ | Jtab _
  | Jal _ | Jalr _ | Ret | Halt -> true
  | _ -> false

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
      if dp.ops.(n) <> Sim.Decode.Fall_off then fail n "no sentinel";
      if dp.runs.(n) <> 0 then fail n "runs at the sentinel is not 0";
      for i = 0 to n - 1 do
        let expect = if is_transfer body.(i) then 1 else 1 + dp.runs.(i + 1) in
        if dp.runs.(i) <> expect then
          fail i (Printf.sprintf "runs %d, expected %d" dp.runs.(i) expect);
        match dp.ops.(i) with
        | Sim.Decode.Fall_off | Sim.Decode.Fuel_trap ->
          fail i "sentinel or trap inside the body"
        | _ -> ()
      done)
    d.procs

let test_decoded_invariants () =
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      check_decoded wl.name (Workloads.Workload.compile wl))
    Workloads.Registry.all;
  for i = 0 to fuzz_cases - 1 do
    let cs = Fuzz.Gen.case_seed ~seed:1993 ~index:i in
    let size = 8 + (i mod 13) in
    let src = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:cs ~size) in
    check_decoded (Printf.sprintf "fuzz case %d" i) (Minic.Frontend.compile src)
  done

let () =
  Alcotest.run "decode"
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
        ] );
    ]
