type t = {
  wl : Workloads.Workload.t;
  prog : Mips.Program.t;
  digest : Digest.t;
  decoded : Sim.Decode.t;
  profile : Sim.Profile.t;
  db : Predict.Database.t;
}

(* Edge profiles are keyed by (source digest, dataset): under one
   build fingerprint the program is a pure function of its source.
   [simulate] runs only when the entry misses. *)
let profiles = Cache.Memo.create ~persist:true "profile"

let profile_for (wl : Workloads.Workload.t) ~digest (ds : Sim.Dataset.t)
    simulate =
  Cache.Memo.find profiles (digest, ds) (fun () ->
      Obs.span ~name:"profile"
        ~attrs:[ ("workload", wl.name); ("dataset", ds.name) ]
        simulate)

(* A program's static facts, keyed by source text: the database of
   its branches with zero counts, which holds the program too.  The
   analyses are read once, inside [Database.make], and not kept.  The
   build fingerprint in every entry's name digests the compiler and
   the analyses, so a stored entry is always what this build would
   derive. *)
let programs = Cache.Memo.create ~persist:true "program"

let static_facts (wl : Workloads.Workload.t) =
  Cache.Memo.find programs wl.source (fun () ->
      let prog =
        Obs.span ~name:"compile" ~attrs:[ ("workload", wl.name) ] (fun () ->
            Workloads.Workload.compile wl)
      in
      let zeros =
        Array.map
          (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) 0)
          prog.procs
      in
      Predict.Database.make prog
        (Cfg.Analysis.of_program prog)
        ~taken:zeros ~fall:zeros)

(* Materialise a static predictor into the per-pc bit arrays the
   trace runner consumes. *)
let prediction_bits (db : Predict.Database.t) predictor =
  let bits =
    Array.map
      (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) false)
      db.program.procs
  in
  Array.iter
    (fun (br : Predict.Database.branch) ->
      bits.(br.proc).(br.pc) <- predictor br)
    db.branches;
  bits

let predictors (db : Predict.Database.t) =
  let order = Predict.Combined.paper_order in
  [
    ("Loop+Rand", prediction_bits db Predict.Combined.loop_rand_predict);
    ("Heuristic", prediction_bits db (Predict.Combined.predict order));
    ("Perfect", prediction_bits db Predict.Combined.perfect_predict);
  ]

(* Entries hold the trace runner's raw integer histograms; the
   distributions are derived where a graph prints them.  The key is the
   workload's source digest and the dataset: the build fingerprint in
   every entry's name covers the compiler and the predictors, so the
   prediction bits are a function of the key and are built only when it
   misses.  [recording] is forced only then too. *)
let traces = Cache.Memo.create ~persist:true "traces"

let trace_entry (wl : Workloads.Workload.t) ~digest ~db (ds : Sim.Dataset.t)
    recording =
  Cache.Memo.find traces (digest, ds) (fun () ->
      Obs.span ~name:"trace"
        ~attrs:[ ("workload", wl.name); ("dataset", ds.name) ]
        (fun () -> Sim.Trace_run.replay (Lazy.force recording) (predictors db)))

let loads = Cache.Memo.create "bench_run.load"

(* A traced workload's primary run is recorded: whichever of its
   profile and trace entries misses first runs it, and the trace
   entry replays it, so a cold load simulates the run once.  The
   recording is dropped with this closure. *)
let load (wl : Workloads.Workload.t) =
  Cache.Memo.find loads wl.name (fun () ->
      let static = static_facts wl in
      let prog = static.program in
      let digest = Digest.string wl.source in
      let decoded = Sim.Decode.of_program prog in
      let ds = Workloads.Workload.primary_dataset wl in
      let recording = lazy (Sim.Trace_run.record ~decoded prog ds) in
      let profile =
        profile_for wl ~digest ds (fun () ->
            if wl.traced then Sim.Trace_run.profile (Lazy.force recording)
            else Sim.Profile.run ~decoded prog ds)
      in
      let db =
        Predict.Database.with_counts static ~taken:profile.taken
          ~fall:profile.fall
      in
      if wl.traced then ignore (trace_entry wl ~digest ~db ds recording);
      { wl; prog; digest; decoded; profile; db })

(* Every table asks for the whole list; the stage runs once per
   [reset]. *)
let all_loads = Cache.Memo.create "bench_run.load_all"

let load_all () =
  Cache.Memo.find all_loads () (fun () ->
      Obs.span ~name:"stage.load_all" (fun () ->
          Par.Pool.parallel_map_list load Workloads.Registry.all))

let traces_for t =
  let ds = Workloads.Workload.primary_dataset t.wl in
  trace_entry t.wl ~digest:t.digest ~db:t.db ds
    (lazy (Sim.Trace_run.record ~decoded:t.decoded t.prog ds))

let dbs = Cache.Memo.create "bench_run.db"

let db_for t ds =
  Cache.Memo.find dbs (t.wl.name, ds.Sim.Dataset.name) (fun () ->
      let profile =
        profile_for t.wl ~digest:t.digest ds (fun () ->
            Sim.Profile.run ~decoded:t.decoded t.prog ds)
      in
      Predict.Database.with_counts t.db ~taken:profile.taken
        ~fall:profile.fall)

let reset = Cache.Memo.reset
