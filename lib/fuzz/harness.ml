type config = {
  seed : int;
  count : int;
  max_size : int;
  failure_dir : string;
}

let default =
  {
    seed = 42;
    count = 500;
    max_size = 24;
    failure_dir = "_fuzz_failures";
  }

type failure = {
  index : int;
  case_seed : int;
  divergences : Oracle.divergence list;
  source : string;
}

type outcome = { cases : int; failures : failure list }

let case ~seed ~max_size i =
  let cs = Gen.case_seed ~seed ~index:i in
  let size = 6 + (cs land max_int) mod (max 1 (max_size - 5)) in
  (cs, Gen.generate ~seed:cs ~size)

let run_case ~seed ~max_size i =
  let src = Gen.to_source (snd (case ~seed ~max_size i)) in
  (src, Oracle.check_source src)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let report_of divs =
  String.concat "\n"
    (List.map (fun d -> Format.asprintf "%a" Oracle.pp_divergence d) divs)

let run ?(log = fun _ -> ()) cfg =
  let failures = ref [] in
  for i = 0 to cfg.count - 1 do
    if i > 0 && i mod 100 = 0 then
      log (Printf.sprintf "... %d/%d cases, %d failure(s)" i cfg.count
             (List.length !failures));
    let cs, prog = case ~seed:cfg.seed ~max_size:cfg.max_size i in
    let src = Gen.to_source prog in
    match Oracle.check_source src with
    | [] -> ()
    | divs ->
      let failing p = Oracle.check_source (Gen.to_source p) <> [] in
      let small = if failing prog then Shrink.minimize ~failing prog else prog in
      let ssrc = Gen.to_source small in
      let sdivs = Oracle.check_source ssrc in
      let final_divs = if sdivs <> [] then sdivs else divs in
      ensure_dir cfg.failure_dir;
      let base = Filename.concat cfg.failure_dir (Printf.sprintf "case_%d" i) in
      write_file (base ^ ".orig.minic") src;
      write_file (base ^ ".minic") ssrc;
      write_file (base ^ ".report")
        (Printf.sprintf "case %d (seed %d, case seed %d)\n\n%s\n" i cfg.seed cs
           (report_of final_divs));
      log
        (Printf.sprintf "FAIL case %d: %s (reproducer: %s.minic, %d lines)" i
           (match final_divs with d :: _ -> d.Oracle.oracle | [] -> "?")
           base
           (List.length (String.split_on_char '\n' ssrc)));
      failures :=
        { index = i; case_seed = cs; divergences = final_divs; source = ssrc }
        :: !failures
  done;
  { cases = cfg.count; failures = List.rev !failures }
