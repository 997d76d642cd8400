(* Tests for the observability layer: span recording and nesting,
   disabled-mode pass-through, span summaries derived from the
   recorded events, the counter registry, and the Chrome trace_event
   JSON export. *)

open Check

(* Run [f] with span recording on and a clean event buffer, restoring
   the previous state afterwards so test order cannot matter. *)
let with_recording f =
  let was = Obs.enabled () in
  Obs.reset_events ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was then Obs.disable ();
      Obs.reset_events ())
    f

(* ---- spans ---- *)

let test_span_records () =
  with_recording (fun () ->
      let v =
        Obs.span ~name:"outer" ~attrs:[ ("k", "v") ] (fun () ->
            Obs.span ~name:"inner" (fun () -> Unix.sleepf 0.002);
            17)
      in
      checki "result passes through" 17 v;
      match Obs.events () with
      | [ a; b ] ->
        (* events sort by begin time: outer starts first *)
        Alcotest.(check string) "outer first" "outer" a.Obs.name;
        Alcotest.(check string) "inner second" "inner" b.Obs.name;
        checkb "attrs kept" true (a.attrs = [ ("k", "v") ]);
        checkb "nesting: inner begins after outer" true (b.ts_us >= a.ts_us);
        checkb "nesting: inner ends within outer" true
          (b.ts_us +. b.dur_us <= a.ts_us +. a.dur_us +. 1.0);
        checkb "durations positive" true (a.dur_us > 0. && b.dur_us > 0.);
        checkb "inner not longer than outer" true (b.dur_us <= a.dur_us)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_span_exception_passthrough () =
  with_recording (fun () ->
      (match Obs.span ~name:"boom" (fun () -> failwith "bang") with
      | () -> Alcotest.fail "expected the exception through"
      | exception Failure m -> Alcotest.(check string) "message" "bang" m);
      checki "failing span still recorded" 1 (List.length (Obs.events ())))

let test_disabled_is_noop () =
  let was = Obs.enabled () in
  Obs.disable ();
  Obs.reset_events ();
  let v = Obs.span ~name:"ghost" (fun () -> 3) in
  checki "result through" 3 v;
  checki "nothing recorded" 0 (List.length (Obs.events ()));
  if was then Obs.enable ()

(* Nearest-rank statistics of [durs] (seconds), recomputed here from
   the definition: the q-quantile is the ceil(q * n)-th smallest.
   [off] shifts both ranks, to show that an off-by-one rank is caught. *)
let nearest_rank ?(off = 0) durs =
  let a = Array.of_list (List.sort Float.compare durs) in
  let n = Array.length a in
  let at q =
    let r = int_of_float (Float.ceil (q *. float_of_int n)) + off in
    a.(min n (max 1 r) - 1)
  in
  { Obs.count = n; p50 = at 0.50; p95 = at 0.95; max = a.(n - 1) }

let test_summaries_exact () =
  with_recording (fun () ->
      (* 20 spans of distinct lengths under one name, 3 under another *)
      let sleep name i =
        Obs.span ~name (fun () -> Unix.sleepf (float_of_int i *. 2e-4))
      in
      List.iter (sleep "long")
        [ 7; 2; 19; 11; 4; 16; 1; 13; 9; 20; 5; 14; 3; 18; 8; 12; 6; 17; 10; 15 ];
      List.iter (sleep "short") [ 3; 1; 2 ];
      let durs name =
        List.filter_map
          (fun (e : Obs.event) ->
            if e.name = name then Some (e.dur_us /. 1e6) else None)
          (Obs.events ())
      in
      let sums = Obs.summaries () in
      Alcotest.(check (list string)) "one summary per name, sorted"
        [ "long"; "short" ] (List.map fst sums);
      List.iter
        (fun (name, (s : Obs.summary)) ->
          let expect = nearest_rank (durs name) in
          checki (name ^ " count") expect.count s.count;
          checkb (name ^ " equals nearest rank") true (s = expect);
          checkb (name ^ " quantiles ordered") true
            (s.p50 <= s.p95 && s.p95 <= s.max))
        sums;
      let long = List.assoc "long" sums in
      checki "long count" 20 long.count;
      (* the ranks are 10 and 19 of 20 distinct durations, so a rank one
         off either way gives different figures *)
      List.iter
        (fun off ->
          checkb
            (Printf.sprintf "rank off by %d differs" off)
            false
            (long = nearest_rank ~off (durs "long")))
        [ -1; 1 ])

(* Skewed runs of 20 spans: quick no-ops plus [slow] spans of 50 ms.
   With one slow span, rank 19 (p95) is still a quick one; with two,
   it is the shorter slow one.  p50 stays quick, max is always slow. *)
let test_skewed_quantiles () =
  let slow_s = 0.05 in
  List.iter
    (fun slow ->
      with_recording (fun () ->
          for i = 1 to 20 do
            Obs.span ~name:"skew" (fun () ->
                if i > 20 - slow then Unix.sleepf slow_s)
          done;
          match Obs.summaries () with
          | [ ("skew", s) ] ->
            let tag = Printf.sprintf "%d slow: " slow in
            checki (tag ^ "count") 20 s.count;
            checkb (tag ^ "p50 is quick") true (s.p50 < slow_s);
            checkb (tag ^ "p95 lands by rank") (slow >= 2) (s.p95 >= slow_s);
            checkb (tag ^ "max is slow") true (s.max >= slow_s)
          | sums ->
            Alcotest.failf "expected one summary, got %d" (List.length sums)))
    [ 1; 2 ]

(* ---- metrics ---- *)

let test_counter_registry () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  checki "incremented" 5 (Obs.Metrics.value c);
  (* the registry hands back the same instance per name *)
  checki "same instance by name" 5
    (Obs.Metrics.value (Obs.Metrics.counter "test.counter"));
  checkb "listed" true
    (List.mem ("test.counter", 5) (Obs.Metrics.counters ()));
  Obs.Metrics.reset ()

let test_metrics_reset () =
  let c = Obs.Metrics.counter "test.reset.c" in
  Obs.Metrics.incr c;
  Obs.Metrics.reset ();
  checki "counter zeroed" 0 (Obs.Metrics.value c)

let test_dump_renders () =
  let c = Obs.Metrics.counter "test.dump.c" in
  Obs.Metrics.incr c;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Metrics.dump ppf;
  Format.pp_print_flush ppf ();
  checkb "dump mentions the counter" true
    (contains (Buffer.contents buf) "test.dump.c");
  Obs.Metrics.reset ()

(* ---- trace JSON export ----

   The export is read back with [Obs.Json.parse]; the reader's own
   cases follow the export tests. *)

open Obs.Json

let test_trace_json_valid () =
  with_recording (fun () ->
      Obs.span ~name:"alpha" ~attrs:[ ("id", "a\"b") ] (fun () -> ());
      Obs.span ~name:"beta" (fun () -> ());
      let doc = parse (Obs.trace_json ()) in
      match member "traceEvents" doc with
      | Some (Arr evs) ->
        checki "two events" 2 (List.length evs);
        List.iter
          (fun e ->
            checkb "complete event" true (member "ph" e = Some (Str "X"));
            checkb "has ts" true
              (match member "ts" e with Some (Num _) -> true | _ -> false);
            checkb "has dur" true
              (match member "dur" e with Some (Num _) -> true | _ -> false);
            checkb "has tid" true
              (match member "tid" e with Some (Num _) -> true | _ -> false))
          evs;
        let names =
          List.filter_map
            (fun e ->
              match member "name" e with Some (Str s) -> Some s | _ -> None)
            evs
        in
        checkb "both spans present" true
          (List.mem "alpha" names && List.mem "beta" names);
        (* the escaped attribute survives the round trip *)
        let alpha =
          List.find
            (fun e -> member "name" e = Some (Str "alpha"))
            evs
        in
        (match member "args" alpha with
        | Some args -> checkb "attr escaped" true (member "id" args = Some (Str "a\"b"))
        | None -> Alcotest.fail "missing args")
      | _ -> Alcotest.fail "missing traceEvents")

let test_write_trace_roundtrip () =
  with_recording (fun () ->
      Obs.span ~name:"disk" (fun () -> ());
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ballarus_obs_test_%d.json" (Unix.getpid ()))
      in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Obs.write_trace path;
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match member "traceEvents" (parse s) with
          | Some (Arr (_ :: _)) -> ()
          | _ -> Alcotest.fail "written trace unreadable"))

(* Every byte the escaper spells specially — 0x00-0x1f, '"' and '\\' —
   in a span name, an attribute key and an attribute value comes back
   exactly through [Obs.trace_json] and [parse]. *)
let test_trace_json_control_bytes () =
  let nasty = String.init 0x20 Char.chr ^ "\"\\" in
  with_recording (fun () ->
      Obs.span ~name:nasty ~attrs:[ (nasty, nasty) ] (fun () -> ());
      match member "traceEvents" (parse (Obs.trace_json ())) with
      | Some (Arr [ e ]) ->
        checkb "name round-trips" true (member "name" e = Some (Str nasty));
        checkb "attribute round-trips" true
          (match member "args" e with
          | Some args -> member nasty args = Some (Str nasty)
          | None -> false)
      | _ -> Alcotest.fail "expected exactly one event")

let test_parse_values () =
  checkb "escapes decode" true
    (parse {|"\"\\\/\b\f\n\r\t\u0041\u00e9"|}
    = Str "\"\\/\b\012\n\r\tA\xc3\xa9");
  checkb "literals" true
    (parse " [null, true, false] " = Arr [ Null; Bool true; Bool false ]);
  checkb "nested" true
    (parse {|{"a": [1, -2.5e1], "b": {}}|}
    = Obj [ ("a", Arr [ Num 1.; Num (-25.) ]); ("b", Obj []) ])

let test_parse_rejects () =
  List.iter
    (fun (what, bad) ->
      match parse bad with
      | _ -> Alcotest.failf "%s accepted: %S" what bad
      | exception Bad _ -> ())
    [
      ("string without closing quote", {|"abc|});
      ("string without closing quote in array", {|["abc]|});
      ("bad literal", "nul");
      ("bad literal", "nxyz");
      ("bad literal in array", "[nul]");
      ("bad literal", "tru");
      ("missing ,", "[1 2]");
      ("missing ,", {|{"a":1 "b":2}|});
      ("missing :", {|{"a" 1}|});
      ("trailing garbage", "{} x");
      ("trailing garbage", "[1]]");
      ("trailing garbage", "nullx");
      ("raw control byte", "\"a\nb\"");
      ("unknown escape", {|"\q"|});
      ("bad \\u escape", {|"\u00g1"|});
      ("empty input", "");
    ]

let tests =
  [
    ( "spans",
      [
        Alcotest.test_case "record and nest" `Quick test_span_records;
        Alcotest.test_case "exception passthrough" `Quick
          test_span_exception_passthrough;
        Alcotest.test_case "disabled is a no-op" `Quick
          test_disabled_is_noop;
        Alcotest.test_case "summaries are exact nearest-rank" `Quick
          test_summaries_exact;
        Alcotest.test_case "skewed quantiles land by rank" `Quick
          test_skewed_quantiles;
      ] );
    ( "metrics",
      [
        Alcotest.test_case "counter registry" `Quick test_counter_registry;
        Alcotest.test_case "reset" `Quick test_metrics_reset;
        Alcotest.test_case "dump renders" `Quick test_dump_renders;
      ] );
    ( "export",
      [
        Alcotest.test_case "trace JSON valid" `Quick test_trace_json_valid;
        Alcotest.test_case "write_trace roundtrip" `Quick
          test_write_trace_roundtrip;
        Alcotest.test_case "control bytes round-trip" `Quick
          test_trace_json_control_bytes;
        Alcotest.test_case "parse values" `Quick test_parse_values;
        Alcotest.test_case "parse rejects malformed" `Quick
          test_parse_rejects;
      ] );
  ]
