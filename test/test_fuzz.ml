(* Tests for the fuzz subsystem: generator determinism and validity,
   oracle cleanliness on fixed-seed batches, oracle sensitivity to a
   corrupted profile, and structural shrinking. *)

open Check

let test_generator_deterministic () =
  let s1 = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:7 ~size:20) in
  let s2 = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:7 ~size:20) in
  Alcotest.(check string) "same seed, same source" s1 s2;
  let s3 = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:8 ~size:20) in
  checkb "different seed, different source" true (s1 <> s3);
  checkb "case seeds differ" true
    (Fuzz.Gen.case_seed ~seed:1 ~index:0 <> Fuzz.Gen.case_seed ~seed:1 ~index:1)

let test_generated_programs_check () =
  (* every generated program must be well-typed MiniC *)
  for i = 0 to 19 do
    let cs = Fuzz.Gen.case_seed ~seed:5 ~index:i in
    let src = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:cs ~size:14) in
    match Minic.Frontend.compile src with
    | _ -> ()
    | exception Minic.Frontend.Error msg ->
      Alcotest.failf "case %d rejected: %s" i msg
  done

let test_oracles_clean_batch () =
  for i = 0 to 9 do
    match Fuzz.Harness.run_case ~seed:11 ~max_size:12 i with
    | _, [] -> ()
    | _, d :: _ ->
      Alcotest.failf "case %d diverged: %s"
        i (Format.asprintf "%a" Fuzz.Oracle.pp_divergence d)
  done

let test_divisor_with_a_call () =
  (* seed 2633's divisor calls a helper that changes what the divisor
     reads: tested for zero, then evaluated again, it divided by zero *)
  match
    Fuzz.Oracle.check_source
      (Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:2633 ~size:12))
  with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "seed 2633 diverged: %s"
      (Format.asprintf "%a" Fuzz.Oracle.pp_divergence d)

let test_input_oracle () =
  (* generated programs read no input: a read() must be reported, even
     though both executors agree on what it returns *)
  let oracles src =
    List.map (fun (d : Fuzz.Oracle.divergence) -> d.oracle)
      (Fuzz.Oracle.check_source src)
  in
  Alcotest.(check (list string)) "a read is reported" [ "input" ]
    (oracles "int main() { int x = read(); print(x); return 0; }");
  Alcotest.(check (list string)) "no read, no divergence" []
    (oracles "int main() { int x = 4; print(x); return 0; }")

let test_dump_prints_checked_source () =
  (* [bpredict fuzz --dump N] prints the source that case N of the same
     run checks; the binary is found next to this executable, where the
     suite's runtest rule puts it *)
  let bpredict =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/bpredict.exe"
  in
  List.iter
    (fun i ->
      let checked, _ = Fuzz.Harness.run_case ~seed:11 ~max_size:12 i in
      let ic =
        Unix.open_process_args_in bpredict
          [| bpredict; "fuzz"; "--seed"; "11"; "--size"; "12"; "--dump";
             string_of_int i |]
      in
      let dumped = In_channel.input_all ic in
      checkb "--dump exits 0" true
        (Unix.close_process_in ic = Unix.WEXITED 0);
      checks (Printf.sprintf "case %d" i) checked dumped)
    [ 0; 5 ]

let flow_src =
  {|
int helper(int k) {
  if (k > 3) { return k * 2; }
  return k;
}
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 10; i++) {
    if (i % 2 == 0) { s = s + helper(i); }
  }
  print(s);
  return 0;
}
|}

let test_flow_clean_profile () =
  let prog = Minic.Frontend.compile flow_src in
  let profile = Sim.Profile.run prog (Sim.Dataset.make ~name:"t" [||]) in
  checkb "consistent profile has no messages" true
    (Cfg.Flow.check_program prog ~taken:profile.taken ~fall:profile.fall = [])

let test_flow_detects_corruption () =
  let prog = Minic.Frontend.compile flow_src in
  let profile = Sim.Profile.run prog (Sim.Dataset.make ~name:"t" [||]) in
  (* bump one executed branch's taken count: in-flow no longer equals
     out-flow somewhere, and the checker must say so *)
  let corrupted = ref false in
  Array.iteri
    (fun p row ->
      Array.iteri
        (fun pc c ->
          if (not !corrupted) && c > 0 then begin
            profile.taken.(p).(pc) <- c + 1;
            corrupted := true
          end)
        row)
    profile.taken;
  checkb "a branch was corrupted" true !corrupted;
  checkb "corruption detected" true
    (Cfg.Flow.check_program prog ~taken:profile.taken ~fall:profile.fall <> [])

let rec has_loop stmts =
  List.exists
    (fun (s : Fuzz.Gen.stmt) ->
      match s with
      | For _ | While _ | DoWhile _ -> true
      | If (_, t, e) -> has_loop t || has_loop e
      | Switch (_, cs, d) ->
        List.exists (fun (_, b) -> has_loop b) cs || has_loop d
      | _ -> false)
    stmts

let contains_loop (p : Fuzz.Gen.program) =
  has_loop p.main_body
  || Array.exists (fun (f : Fuzz.Gen.func) -> has_loop f.body) p.helpers

let test_shrink_reaches_fixpoint () =
  (* find a generated program containing a loop, then shrink under the
     predicate "still contains a loop" *)
  let rec find seed =
    if seed > 80 then Alcotest.fail "no loopy program in seed range"
    else
      let p = Fuzz.Gen.generate ~seed ~size:22 in
      if contains_loop p then p else find (seed + 1)
  in
  let prog = find 40 in
  let small = Fuzz.Shrink.minimize ~failing:contains_loop prog in
  checkb "still satisfies predicate" true (contains_loop small);
  checkb "locally minimal" true
    (not (Seq.exists contains_loop (Fuzz.Shrink.candidates small)));
  checkb "did not grow" true
    (String.length (Fuzz.Gen.to_source small)
    <= String.length (Fuzz.Gen.to_source prog));
  (* shrunk programs must still be valid MiniC *)
  match Minic.Frontend.compile (Fuzz.Gen.to_source small) with
  | _ -> ()
  | exception Minic.Frontend.Error msg ->
    Alcotest.failf "shrunk program rejected: %s" msg

let test_shrink_candidates_all_check () =
  (* every one-step shrink of a generated program is itself valid *)
  let prog = Fuzz.Gen.generate ~seed:9 ~size:16 in
  let n = ref 0 in
  Seq.iter
    (fun p ->
      incr n;
      match Minic.Frontend.compile (Fuzz.Gen.to_source p) with
      | _ -> ()
      | exception Minic.Frontend.Error msg ->
        Alcotest.failf "candidate %d rejected: %s" !n msg)
    (Fuzz.Shrink.candidates prog);
  checkb "has candidates" true (!n > 0)

let prop_generated_interp_equals_machine =
  QCheck.Test.make ~name:"interp = machine on generated programs" ~count:15
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let src = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed ~size:12) in
      match Fuzz.Oracle.check_source src with
      | [] -> true
      | d :: _ ->
        QCheck.Test.fail_reportf "seed %d: %s" seed
          (Format.asprintf "%a" Fuzz.Oracle.pp_divergence d))

let tests =
  [
    ( "gen",
      [
        Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "programs check" `Quick
          test_generated_programs_check;
      ] );
    ( "oracle",
      [
        Alcotest.test_case "clean batch" `Quick test_oracles_clean_batch;
        Alcotest.test_case "divisor with a call" `Quick
          test_divisor_with_a_call;
        Alcotest.test_case "input" `Quick test_input_oracle;
        Alcotest.test_case "dump prints the checked source" `Quick
          test_dump_prints_checked_source;
        Alcotest.test_case "flow clean" `Quick test_flow_clean_profile;
        Alcotest.test_case "flow corruption" `Quick
          test_flow_detects_corruption;
      ] );
    ( "shrink",
      [
        Alcotest.test_case "fixpoint" `Quick test_shrink_reaches_fixpoint;
        Alcotest.test_case "candidates valid" `Quick
          test_shrink_candidates_all_check;
      ] );
    ( "properties",
      List.map qcheck
        [ prop_generated_interp_equals_machine ] );
  ]
