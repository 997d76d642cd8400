(* Tests for the observability layer: span recording and nesting,
   disabled-mode pass-through, the metrics registry (counters,
   log-scale histogram buckets and quantiles), and the Chrome
   trace_event JSON export. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

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

let test_span_feeds_histogram () =
  with_recording (fun () ->
      Obs.Metrics.reset ();
      Obs.span ~name:"timed-stage" (fun () -> Unix.sleepf 0.002);
      match Obs.Metrics.find_histogram "span.timed-stage" with
      | Some s ->
        checki "one observation" 1 s.Obs.Metrics.count;
        checkb "max in a plausible band" true
          (s.Obs.Metrics.max >= 0.002 && s.Obs.Metrics.max < 1.0)
      | None -> Alcotest.fail "span histogram not registered")

(* ---- metrics ---- *)

let test_counter_registry () =
  let c = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.set c 0;
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  checki "incremented" 5 (Obs.Metrics.value c);
  (* the registry hands back the same instance per name *)
  checki "same instance by name" 5
    (Obs.Metrics.value (Obs.Metrics.counter "test.counter"));
  checkb "listed" true
    (List.mem ("test.counter", 5) (Obs.Metrics.counters ()));
  Obs.Metrics.set c 0

let test_histogram_buckets () =
  let h = Obs.Metrics.histogram "test.hist" in
  (* 100 observations of 1.0 and 5 of 100.0: p50 must land in 1.0's
     power-of-two bucket [1, 2), p95 too (100/105 > 0.95), max exact *)
  for _ = 1 to 100 do
    Obs.Metrics.observe h 1.0
  done;
  for _ = 1 to 5 do
    Obs.Metrics.observe h 100.0
  done;
  let s = Obs.Metrics.stats h in
  checki "count" 105 s.Obs.Metrics.count;
  checkb "sum" true (Float.abs (s.sum -. 600.) < 1e-9);
  checkb "max exact" true (s.max = 100.0);
  checkb "p50 in the 1.0 bucket" true (s.p50 >= 1.0 && s.p50 <= 2.0);
  checkb "p95 in the 1.0 bucket" true (s.p95 >= 1.0 && s.p95 <= 2.0);
  (* skewed the other way: p95 must climb into the 100.0 bucket *)
  let h2 = Obs.Metrics.histogram "test.hist2" in
  for _ = 1 to 10 do
    Obs.Metrics.observe h2 1.0
  done;
  for _ = 1 to 90 do
    Obs.Metrics.observe h2 100.0
  done;
  let s2 = Obs.Metrics.stats h2 in
  checkb "p50 in the 100.0 bucket" true (s2.p50 >= 64.0 && s2.p50 <= 128.0);
  checkb "p95 in the 100.0 bucket" true (s2.p95 >= 64.0 && s2.p95 <= 128.0);
  (* quantiles never exceed the observed maximum *)
  checkb "p95 <= max" true (s2.p95 <= s2.max);
  (* tiny and zero values stay inside the table *)
  let h3 = Obs.Metrics.histogram "test.hist3" in
  Obs.Metrics.observe h3 0.;
  Obs.Metrics.observe h3 1e-15;
  Obs.Metrics.observe h3 1e12;
  checki "extremes counted" 3 (Obs.Metrics.stats h3).Obs.Metrics.count

let test_metrics_reset () =
  let c = Obs.Metrics.counter "test.reset.c" in
  let h = Obs.Metrics.histogram "test.reset.h" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 1.0;
  Obs.Metrics.reset ();
  checki "counter zeroed" 0 (Obs.Metrics.value c);
  checki "histogram zeroed" 0 (Obs.Metrics.stats h).Obs.Metrics.count

let test_dump_renders () =
  let c = Obs.Metrics.counter "test.dump.c" in
  Obs.Metrics.incr c;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Metrics.dump ppf;
  Format.pp_print_flush ppf ();
  checkb "dump mentions the counter" true
    (contains (Buffer.contents buf) "test.dump.c");
  Obs.Metrics.set c 0

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

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "record and nest" `Quick test_span_records;
          Alcotest.test_case "exception passthrough" `Quick
            test_span_exception_passthrough;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "feeds span histogram" `Quick
            test_span_feeds_histogram;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter registry" `Quick test_counter_registry;
          Alcotest.test_case "histogram buckets and quantiles" `Quick
            test_histogram_buckets;
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
