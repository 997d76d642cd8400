(** Compiled-and-profiled benchmarks, memoised.

    A [t] joins everything the experiment drivers need for one
    workload: the compiled program, its pre-decoded form, its
    per-procedure CFG analyses, the edge profile of the primary
    dataset, and the resulting branch database.

    Compiled programs (keyed by source text) and edge profiles (keyed
    by program digest and dataset content) are memoised in persisted
    {!Cache.Memo} tables, so a warm process neither compiles nor
    simulates. *)

type t = {
  wl : Workloads.Workload.t;
  prog : Mips.Program.t;
  digest : Digest.t;
      (** of [prog]'s marshalled bytes, computed once by {!load}: the
          program's part of every key derived from it (profiles,
          traces, the subset walk), so no lookup marshals [prog] *)
  decoded : Sim.Decode.t;  (** [prog] pre-decoded, for re-simulation *)
  analyses : Cfg.Analysis.t array;
  profile : Sim.Profile.t;
  db : Predict.Database.t;
}

val load : Workloads.Workload.t -> t
(** Compile, analyse, and profile on the primary dataset (memoised per
    workload name; safe to call from multiple domains).  A compile
    that runs, rather than being read from the store, records a
    [compile] span. *)

val load_all : unit -> t list
(** All benchmarks of {!Workloads.Registry.all}.  The independent
    per-workload pipelines fan out across the {!Par.Pool} default
    pool; the returned list is in registry order regardless of [-j].
    Memoised: the [stage.load_all] span and its pool job run once per
    {!reset}. *)

val load_named : string list -> t list
(** Like {!load_all} for a named subset, in the given order. *)

val reset : unit -> unit
(** {!Cache.Memo.reset}: empty every memo table in memory (the disk
    store is untouched), so the benchmark harness can time cold
    pipelines. *)

val db_for : t -> Sim.Dataset.t -> Predict.Database.t
(** Branch database for any of the workload's datasets: [t.db]'s
    static facts with that dataset's counts
    ({!Predict.Database.with_counts}), memoised per (workload, dataset)
    pair; the profile behind it is shared with {!load}'s through the
    persisted profile table. *)

val prediction_bits :
  t -> (Predict.Database.branch -> bool) -> Sim.Trace_run.prediction_bits
(** Materialise a static predictor into the per-pc bit arrays the
    trace runner consumes. *)
