(* Tests for the memo layer and the persistent store under it: memo
   hit/miss behaviour, the enabled switch, key/table separation,
   corruption and misnamed-entry tolerance, unwritable stores and
   clearing.  Every test redirects the store to its own private
   directory ([Check.with_isolated_store]) so nothing touches
   [_cache/]. *)

open Check

let entry_files dir =
  if Sys.file_exists dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.map (Filename.concat dir)
  else []

let test_memo_roundtrip () =
  with_isolated_store "test" (fun dir ->
      let calls = ref 0 in
      let compute () =
        incr calls;
        [| 1; 2; 3 |]
      in
      let a = Cache.Store.memo ~table:"t" ~key:"k7" compute in
      let b = Cache.Store.memo ~table:"t" ~key:"k7" compute in
      checki "computed once" 1 !calls;
      checkb "identical values" true (a = b);
      checki "one entry on disk" 1 (List.length (entry_files dir));
      (* distinct keys and distinct tables are distinct entries *)
      let _ = Cache.Store.memo ~table:"t" ~key:"k8" compute in
      let _ = Cache.Store.memo ~table:"u" ~key:"k7" compute in
      checki "three computes total" 3 !calls;
      checki "three entries on disk" 3 (List.length (entry_files dir)))

let test_disabled_bypasses () =
  with_isolated_store "test" (fun dir ->
      Cache.Store.set_enabled false;
      let calls = ref 0 in
      let compute () =
        incr calls;
        42
      in
      let a = Cache.Store.memo ~table:"t" ~key:"x" compute in
      let b = Cache.Store.memo ~table:"t" ~key:"x" compute in
      checki "both values correct" 42 a;
      checki "both values correct" 42 b;
      checki "computed every time" 2 !calls;
      checki "nothing written" 0 (List.length (entry_files dir)))

let corrupt path garbage =
  let oc = open_out_bin path in
  output_string oc garbage;
  close_out oc

let test_corrupt_entry_recomputed () =
  with_isolated_store "test" (fun dir ->
      Obs.Metrics.reset ();
      let calls = ref 0 in
      let compute () =
        incr calls;
        "payload"
      in
      let _ = Cache.Store.memo ~table:"t" ~key:"0" compute in
      let path =
        match entry_files dir with
        | [ p ] -> p
        | l -> Alcotest.failf "expected one entry, found %d" (List.length l)
      in
      (* flipped payload bytes: digest check must reject the entry *)
      corrupt path "ballarus-cache/1\nnot-a-digest\ngarbage";
      let v = Cache.Store.memo ~table:"t" ~key:"0" compute in
      Alcotest.(check string) "recomputed value" "payload" v;
      checki "recompute happened" 2 !calls;
      checki "quarantine counted" 1
        (metric "cache.corrupt_quarantined");
      (* truncated entry *)
      corrupt path "ballarus-c";
      let v = Cache.Store.memo ~table:"t" ~key:"0" compute in
      Alcotest.(check string) "recomputed after truncation" "payload" v;
      checki "recompute happened again" 3 !calls;
      checki "second quarantine counted" 2
        (metric "cache.corrupt_quarantined");
      (* the rewrite must have produced a readable entry again *)
      let v = Cache.Store.memo ~table:"t" ~key:"0" compute in
      Alcotest.(check string) "hit after rewrite" "payload" v;
      checki "no further compute" 3 !calls;
      checki "no further quarantine" 2
        (metric "cache.corrupt_quarantined"))

let test_quarantine_deletes_bad_entry () =
  (* a corrupt entry must be removed from disk at detection time, so
     it cannot re-trip a later run that never recomputes this key *)
  with_isolated_store "test" (fun dir ->
      Obs.Metrics.reset ();
      let _ = Cache.Store.memo ~table:"t" ~key:"1" (fun () -> "x") in
      let path =
        match entry_files dir with [ p ] -> p | _ -> Alcotest.fail "one entry"
      in
      corrupt path "garbage";
      let gone_during_recompute = ref false in
      let v =
        Cache.Store.memo ~table:"t" ~key:"1" (fun () ->
            (* observe the disk mid-recompute: the bad entry must
               already have been deleted *)
            gone_during_recompute := not (Sys.file_exists path);
            "y")
      in
      Alcotest.(check string) "recomputed" "y" v;
      checkb "bad entry deleted before recompute" true !gone_during_recompute;
      checki "one quarantine" 1 (metric "cache.corrupt_quarantined"))

(* An entry is bound to the name it was written under: key "1"'s
   bytes copied onto key "2"'s entry name are well-formed, but must be
   quarantined and recomputed, never served as key "2"'s value. *)
let test_misnamed_entry_recomputed () =
  with_isolated_store "test" (fun dir ->
      let _ = Cache.Store.memo ~table:"t" ~key:"1" (fun () -> "one") in
      let p1 =
        match entry_files dir with [ p ] -> p | _ -> Alcotest.fail "one entry"
      in
      let _ = Cache.Store.memo ~table:"t" ~key:"2" (fun () -> "two") in
      let p2 =
        match List.filter (( <> ) p1) (entry_files dir) with
        | [ p ] -> p
        | _ -> Alcotest.fail "two entries"
      in
      corrupt p2 (In_channel.with_open_bin p1 In_channel.input_all);
      Obs.Metrics.reset ();
      let v = Cache.Store.memo ~table:"t" ~key:"2" (fun () -> "two") in
      Alcotest.(check string) "own value, not key 1's" "two" v;
      checki "no hit" 0 (metric "cache.hit");
      checki "one quarantine" 1 (metric "cache.corrupt_quarantined"))

(* The single-read parser: every malformed shape of an entry is
   quarantined and recomputed, and a well-formed payload is served
   whatever bytes it holds.  The shapes with a header take the format
   tag from a real entry and a seal computed as the store computes it
   (digest of the file name and the payload's digest), so only the
   shape is wrong. *)
let test_entry_shapes () =
  with_isolated_store "test" (fun dir ->
      let awkward = "a\nb\000\n\000\n\nc" in
      let calls = ref 0 in
      let compute () =
        incr calls;
        awkward
      in
      let memo () = Cache.Store.memo ~table:"t" ~key:"shapes" compute in
      ignore (memo ());
      let path =
        match entry_files dir with [ p ] -> p | _ -> Alcotest.fail "one entry"
      in
      let tag = In_channel.with_open_bin path In_channel.input_line in
      let tag = Option.get tag in
      let seal payload =
        Digest.to_hex
          (Digest.string (Filename.basename path ^ Digest.string payload))
      in
      let payload = Marshal.to_string awkward [] in
      checkb "payload holds newlines and NULs" true
        (String.contains payload '\n' && String.contains payload '\000');
      (* the entry as written is served *)
      Obs.Metrics.reset ();
      Alcotest.(check string) "served" awkward (memo ());
      checki "hit" 1 (metric "cache.hit");
      checki "computed once" 1 !calls;
      List.iteri
        (fun i (label, bytes) ->
          corrupt path bytes;
          Obs.Metrics.reset ();
          Alcotest.(check string) (label ^ ": recomputed value") awkward
            (memo ());
          checki (label ^ ": no hit") 0 (metric "cache.hit");
          checki (label ^ ": quarantined") 1
            (metric "cache.corrupt_quarantined");
          checki (label ^ ": recomputed") (i + 2) !calls;
          (* the rewritten entry is whole again *)
          Obs.Metrics.reset ();
          Alcotest.(check string) (label ^ ": served after rewrite") awkward
            (memo ());
          checki (label ^ ": hit after rewrite") 1 (metric "cache.hit"))
        [
          ("empty file", "");
          ("tag with no newline", tag);
          ("tag and seal, no newline after the seal", tag ^ "\n" ^ seal "");
          ("tag and seal, no payload", tag ^ "\n" ^ seal "" ^ "\n");
          ( "payload cut after its newlines",
            let cut = String.sub payload 0 (String.length payload - 2) in
            tag ^ "\n" ^ seal cut ^ "\n" ^ cut );
        ])

(* A failed write is skipped, not retried: the fault is injected
   between the lookup and the write, by turning the store directory
   into a regular file while the value is computed.  One failure costs
   the entry; once the file is gone, the next lookup recomputes and
   its entry lands. *)
let test_injected_write_failure_skipped () =
  with_isolated_store "test" (fun dir ->
      Obs.Metrics.reset ();
      let calls = ref 0 in
      let compute () =
        incr calls;
        if !calls = 1 then close_out (open_out dir);
        "w"
      in
      let v = Cache.Store.memo ~table:"t" ~key:"3" compute in
      Alcotest.(check string) "value still returned" "w" v;
      checki "one miss" 1 (metric "cache.miss");
      checki "one skipped write" 1 (metric "cache.write_failures");
      checki "nothing written" 0 (metric "cache.write");
      Sys.remove dir;
      let v = Cache.Store.memo ~table:"t" ~key:"3" compute in
      Alcotest.(check string) "recomputed value" "w" v;
      checki "recomputed" 2 !calls;
      checki "entry landed once writes heal" 1 (List.length (entry_files dir)))

(* The store directory is a regular file from the start, so every
   open fails with ENOTDIR.  The lookup is a miss, the write is
   skipped, and the computed value comes back. *)
let test_unwritable_store_skips_write () =
  with_isolated_store "test" (fun dir ->
      let oc = open_out dir in
      close_out oc;
      Fun.protect
        ~finally:(fun () -> Sys.remove dir)
        (fun () ->
          Obs.Metrics.reset ();
          let v = Cache.Store.memo ~table:"t" ~key:"5" (fun () -> "computed") in
          Alcotest.(check string) "computed value returned" "computed" v;
          checki "one miss" 1 (metric "cache.miss");
          checki "one skipped write" 1 (metric "cache.write_failures");
          checki "nothing written" 0 (metric "cache.write")))

(* Regression for the leaked-tmp bug: when a write failed, the
   abandoned [.tmp] staging file used to stay behind in the cache
   directory forever (the rename that would have consumed it never
   ran).  The failure handler now deletes it and counts the cleanup.
   The rename fails for real here: a non-empty directory sits at the
   entry's name. *)
let test_permanent_write_failure_cleans_tmp () =
  with_isolated_store "test" (fun dir ->
      let _ = Cache.Store.memo ~table:"t" ~key:"4" (fun () -> "first") in
      let path =
        match entry_files dir with [ p ] -> p | _ -> Alcotest.fail "one entry"
      in
      Sys.remove path;
      Sys.mkdir path 0o755;
      let inner = Filename.concat path "occupied" in
      close_out (open_out inner);
      Obs.Metrics.reset ();
      let v = Cache.Store.memo ~table:"t" ~key:"4" (fun () -> "lost") in
      Alcotest.(check string) "value still returned" "lost" v;
      checki "one abandoned write" 1 (metric "cache.write_failures");
      checki "orphaned tmp cleaned" 1 (metric "cache.tmp_cleaned");
      checkb "no entry landed" true (Sys.is_directory path);
      let tmp_files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".tmp")
      in
      checki "no tmp file left behind" 0 (List.length tmp_files);
      (* the key is still computable and cacheable afterwards *)
      Sys.remove inner;
      Sys.rmdir path;
      let v = Cache.Store.memo ~table:"t" ~key:"4" (fun () -> "found") in
      Alcotest.(check string) "recomputed" "found" v;
      checki "entry landed once writes heal" 1 (List.length (entry_files dir)))

let test_clear_empties_store () =
  with_isolated_store "test" (fun dir ->
      let calls = ref 0 in
      let compute () =
        incr calls;
        ()
      in
      Cache.Store.memo ~table:"t" ~key:"1" compute;
      Cache.Store.memo ~table:"t" ~key:"2" compute;
      checki "two entries" 2 (List.length (entry_files dir));
      Cache.Store.clear ();
      checki "cleared" 0 (List.length (entry_files dir));
      Cache.Store.memo ~table:"t" ~key:"1" compute;
      checki "recomputed after clear" 3 !calls)

(* a cached profile must be indistinguishable from a fresh one: run a
   real workload product through the store and compare *)
let test_profile_through_store () =
  with_isolated_store "test" (fun _dir ->
      let wl = Workloads.Registry.find "gcc" in
      let prog = Workloads.Workload.compile wl in
      let ds = Workloads.Workload.primary_dataset wl in
      let fresh = Sim.Profile.run prog ds in
      let compute () = Sim.Profile.run prog ds in
      let key = Marshal.to_string (prog, ds) [] in
      let cold = Cache.Store.memo ~table:"t-prof" ~key compute in
      let warm = Cache.Store.memo ~table:"t-prof" ~key compute in
      checkb "cold = fresh" true
        (cold.stats = fresh.stats && cold.taken = fresh.taken
       && cold.fall = fresh.fall);
      checkb "warm (unmarshalled) = fresh" true
        (warm.stats = fresh.stats && warm.taken = fresh.taken
       && warm.fall = fresh.fall))

(* ---- Cache.Memo ---- *)

(* memory first, then disk, then compute; a memory-only table never
   touches the disk, and the table name separates equal keys *)
let test_memo_layers () =
  with_isolated_store "test" (fun dir ->
      let calls = ref 0 in
      let compute () =
        incr calls;
        "v"
      in
      let t = Cache.Memo.create ~persist:true "test.layers" in
      let u = Cache.Memo.create ~persist:true "test.layers.other" in
      let mem = Cache.Memo.create "test.layers.memory" in
      Obs.Metrics.reset ();
      let a = Cache.Memo.find t ("k", 1) compute in
      let b = Cache.Memo.find t ("k", 1) compute in
      checki "computed once" 1 !calls;
      checkb "memory hit is the same value" true (a == b);
      checki "memory hits leave the disk alone" 0 (metric "cache.hit");
      Cache.Memo.reset ();
      let c = Cache.Memo.find t ("k", 1) compute in
      checki "served from disk after reset" 1 (metric "cache.hit");
      checki "still computed once" 1 !calls;
      checkb "disk value equal" true (a = c);
      let _ = Cache.Memo.find u ("k", 1) compute in
      checki "same key, other table: computed" 2 !calls;
      checki "same key, other table: two entries" 2
        (List.length (entry_files dir));
      let _ = Cache.Memo.find mem ("k", 1) compute in
      let _ = Cache.Memo.find mem ("k", 1) compute in
      checki "memory-only table computes once" 3 !calls;
      checki "memory-only table writes nothing" 2
        (List.length (entry_files dir)))

let test_memo_duplicate_name () =
  let _ : (int, int) Cache.Memo.t = Cache.Memo.create "test.duplicate" in
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Cache.Memo.create: duplicate table test.duplicate")
    (fun () ->
      ignore (Cache.Memo.create ~persist:true "test.duplicate" : (int, string) Cache.Memo.t))

(* [Bench_run.reset] empties the memory tables only: a reload rebuilds
   the run (a new value), but its profile comes back from disk *)
let test_reset_reloads_from_disk () =
  with_isolated_store "test" (fun _dir ->
      let wl = Workloads.Registry.find "matrix300" in
      Experiments.Bench_run.reset ();
      let r1 = Experiments.Bench_run.load wl in
      checkb "memoised in memory" true (Experiments.Bench_run.load wl == r1);
      Experiments.Bench_run.reset ();
      Obs.Metrics.reset ();
      let r2 = Experiments.Bench_run.load wl in
      checkb "reload is a new value" true (r2 != r1);
      checki "program and profile are disk hits" 2 (metric "cache.hit");
      checki "no disk miss" 0 (metric "cache.miss");
      checkb "same profile" true
        (r2.profile.taken = r1.profile.taken
        && r2.profile.fall = r1.profile.fall
        && r2.profile.stats = r1.profile.stats))

(* A warm [load_all] reads every compiled program and profile, and
   each traced workload's trace entry, from the store: no [compile]
   or [profile] span, no disk miss, and each
   program is the one a fresh compile gives, down to its marshalled
   bytes (which the profile keys are digests of). *)
let test_warm_load_compiles_nothing () =
  let count_spans name =
    List.length
      (List.filter (fun (e : Obs.event) -> e.name = name) (Obs.events ()))
  in
  let traced_load_all () =
    Experiments.Bench_run.reset ();
    Obs.Metrics.reset ();
    Obs.reset_events ();
    Obs.enable ();
    Fun.protect ~finally:Obs.disable Experiments.Bench_run.load_all
  in
  let nwl = List.length Workloads.Registry.all in
  with_isolated_store "test" (fun _dir ->
      ignore (traced_load_all ());
      checki "cold: a compile span per workload" nwl (count_spans "compile");
      checki "cold: a profile span per workload" nwl (count_spans "profile");
      let rs = traced_load_all () in
      checki "warm: no compile span" 0 (count_spans "compile");
      checki "warm: no profile span" 0 (count_spans "profile");
      checki "warm: no disk miss" 0 (metric "cache.miss");
      checki "warm: program and profile hits"
        ((2 * nwl) + List.length (Workloads.Registry.traced ()))
        (metric "cache.hit");
      List.iter
        (fun (r : Experiments.Bench_run.t) ->
          let fresh = Workloads.Workload.compile r.wl in
          checkb (r.wl.name ^ ": reloaded program equals a fresh compile") true
            (compare r.prog fresh = 0);
          checkb (r.wl.name ^ ": same marshalled bytes") true
            (Marshal.to_string r.prog [] = Marshal.to_string fresh []);
          (* the static facts come from the program entry, not from a
             fresh analysis; they equal a fresh derivation, the
             Section 4.4 verdicts ([ext]) included *)
          checkb (r.wl.name ^ ": database equals Database.make") true
            (compare r.db
               (Predict.Database.make r.prog
                  (Cfg.Analysis.of_program r.prog)
                  ~taken:r.profile.taken ~fall:r.profile.fall)
             = 0))
        rs);
  Obs.reset_events ()

(* The per-order averages Graph 1 and ablation-orders read are stored:
   bit for bit the averages of the miss matrix, whether computed (cold)
   or read back from the store (warm), where the matrix is rebuilt
   from the warm loads only to compare. *)
let test_order_averages_stored () =
  let bits a = Array.map Int64.bits_of_float a in
  let from_matrix () =
    Predict.Ordering.averages
      (fst (Experiments.Orderings.miss_matrix_cached ()))
  in
  with_isolated_store "test" (fun _dir ->
      Experiments.Bench_run.reset ();
      let cold = Experiments.Orderings.order_averages () in
      checki "5040 averages" 5040 (Array.length cold);
      checkb "cold: bitwise the matrix's averages" true
        (bits cold = bits (from_matrix ()));
      Experiments.Bench_run.reset ();
      Obs.Metrics.reset ();
      let warm = Experiments.Orderings.order_averages () in
      checki "warm: no disk miss" 0 (metric "cache.miss");
      checki "warm: the loads and the averages are disk hits"
        ((2 * List.length Workloads.Registry.all)
        + List.length (Workloads.Registry.traced ())
        + 1)
        (metric "cache.hit");
      checkb "warm: a new value" true (warm != cold);
      checkb "warm: bitwise the matrix's averages" true
        (bits warm = bits (from_matrix ())));
  Experiments.Bench_run.reset ()

let tests =
  [
    ( "store",
      [
        Alcotest.test_case "memo roundtrip and key separation" `Quick
          test_memo_roundtrip;
        Alcotest.test_case "disabled store bypasses disk" `Quick
          test_disabled_bypasses;
        Alcotest.test_case "corrupt entries are recomputed" `Quick
          test_corrupt_entry_recomputed;
        Alcotest.test_case "quarantine deletes bad entry" `Quick
          test_quarantine_deletes_bad_entry;
        Alcotest.test_case "misnamed entry recomputed" `Quick
          test_misnamed_entry_recomputed;
        Alcotest.test_case "injected write failure skipped" `Quick
          test_injected_write_failure_skipped;
        Alcotest.test_case "unwritable store skips the write" `Quick
          test_unwritable_store_skips_write;
        Alcotest.test_case "permanent write failure cleans tmp" `Quick
          test_permanent_write_failure_cleans_tmp;
        Alcotest.test_case "clear empties the store" `Quick
          test_clear_empties_store;
        Alcotest.test_case "profile survives the store" `Quick
          test_profile_through_store;
        Alcotest.test_case "entry shapes, one read" `Quick test_entry_shapes;
      ] );
    ( "memo",
      [
        Alcotest.test_case "memory, then disk, then compute" `Quick
          test_memo_layers;
        Alcotest.test_case "duplicate table name rejected" `Quick
          test_memo_duplicate_name;
        Alcotest.test_case "reset reloads from disk" `Quick
          test_reset_reloads_from_disk;
        Alcotest.test_case "warm loads compile nothing" `Quick
          test_warm_load_compiles_nothing;
        Alcotest.test_case "order averages stored" `Quick
          test_order_averages_stored;
      ] );
  ]
