(* Helpers every suite shares.  Each suite's process initialises every
   test module, so nothing here does work before a test runs. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let metric name = Obs.Metrics.value (Obs.Metrics.counter name)

(* Run [f dir] against a fresh on-disk store [dir] private to this
   process, [_NAME_cache_PID_N] in the current directory; however [f]
   ends, the store is removed and the previous directory and switch
   restored.  Named by pid and a counter: every suite shares the
   global RNG, so none of them seeds it. *)
let isolated_stores = ref 0

let with_isolated_store name f =
  incr isolated_stores;
  let dir =
    Printf.sprintf "_%s_cache_%d_%d" name (Unix.getpid ()) !isolated_stores
  in
  let old_dir = Cache.Store.dir () and old_enabled = Cache.Store.enabled () in
  Cache.Store.set_dir dir;
  Cache.Store.set_enabled true;
  Cache.Store.clear ();
  Fun.protect
    ~finally:(fun () ->
      Cache.Store.clear ();
      (try Sys.rmdir dir with Sys_error _ -> ());
      Cache.Store.set_dir old_dir;
      Cache.Store.set_enabled old_enabled)
    (fun () -> f dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* One qcheck seed per process: [QCHECK_SEED], or drawn from a private
   self-initialised state, so the global [Random] state is never
   reseeded.  It is drawn when the first property runs and printed in
   every property's log, so a failure can be replayed. *)
let seed =
  lazy
    (match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
     | Some s -> s
     | None -> Random.State.int (Random.State.make_self_init ()) 1_000_000_000)

(* [QCheck_alcotest.to_alcotest], with the seed drawn when the property
   runs rather than when the suite's test list is built. *)
let qcheck (QCheck2.Test.Test cell as t) =
  Alcotest.test_case (QCheck2.Test.get_name cell) `Slow (fun () ->
      let seed = Lazy.force seed in
      Printf.printf "qcheck random seed: %d\n%!" seed;
      let _, _, run =
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
      in
      run ())
