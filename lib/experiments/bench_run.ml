type t = {
  wl : Workloads.Workload.t;
  prog : Mips.Program.t;
  digest : Digest.t;
  decoded : Sim.Decode.t;
  profile : Sim.Profile.t;
  db : Predict.Database.t;
}

(* Edge profiles are keyed by (source digest, dataset): under one
   build fingerprint the program is a pure function of its source. *)
let profiles = Cache.Memo.create ~persist:true "profile"

let profile_for (wl : Workloads.Workload.t) ~decoded ~digest prog
    (ds : Sim.Dataset.t) =
  Cache.Memo.find profiles (digest, ds) (fun () ->
      Obs.span ~name:"profile"
        ~attrs:[ ("workload", wl.name); ("dataset", ds.name) ]
        (fun () -> Sim.Profile.run ~decoded prog ds))

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

let loads = Cache.Memo.create "bench_run.load"

let load (wl : Workloads.Workload.t) =
  Cache.Memo.find loads wl.name (fun () ->
      let static = static_facts wl in
      let prog = static.program in
      let digest = Digest.string wl.source in
      let decoded = Sim.Decode.of_program prog in
      let profile =
        profile_for wl ~decoded ~digest prog
          (Workloads.Workload.primary_dataset wl)
      in
      let db =
        Predict.Database.with_counts static ~taken:profile.taken
          ~fall:profile.fall
      in
      { wl; prog; digest; decoded; profile; db })

(* Every table asks for the whole list; the stage runs once per
   [reset]. *)
let all_loads = Cache.Memo.create "bench_run.load_all"

let load_all () =
  Cache.Memo.find all_loads () (fun () ->
      Obs.span ~name:"stage.load_all" (fun () ->
          Par.Pool.parallel_map_list load Workloads.Registry.all))

let dbs = Cache.Memo.create "bench_run.db"

let db_for t ds =
  Cache.Memo.find dbs (t.wl.name, ds.Sim.Dataset.name) (fun () ->
      let profile =
        profile_for t.wl ~decoded:t.decoded ~digest:t.digest t.prog ds
      in
      Predict.Database.with_counts t.db ~taken:profile.taken
        ~fall:profile.fall)

let reset = Cache.Memo.reset
