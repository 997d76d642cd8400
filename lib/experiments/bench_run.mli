(** Compiled-and-profiled benchmarks, memoised.

    A [t] joins everything the experiment drivers and the CLI's
    per-program subcommands need for one workload: the compiled
    program, its pre-decoded form, the edge profile of the primary
    dataset, and the resulting branch database.  {!load} is the one
    path from a source to them.

    Two persisted {!Cache.Memo} tables hold what a warm process reads
    instead of deriving: [program], keyed by source text, holds the
    branch database with zero counts, that is the compiled program and
    its branch records, every static fact of each branch included (its
    class, loop prediction, Default coin and the verdicts of the
    paper's and the Section 4.4 heuristics), but no CFG analyses;
    [profile], keyed by source digest and dataset, holds the edge
    profiles; [traces], keyed the same way, holds the trace-mode
    results of the traced workloads' primary datasets.  A warm
    process neither compiles, analyses nor simulates. *)

type t = {
  wl : Workloads.Workload.t;
  prog : Mips.Program.t;
  digest : Digest.t;
      (** of the workload's source text: under one build fingerprint
          the program is a pure function of it, so it stands for the
          program in every key derived from it (profiles, traces, the
          per-order averages and the subset walk) *)
  decoded : Sim.Decode.t;  (** [prog] pre-decoded, for re-simulation *)
  profile : Sim.Profile.t;
  db : Predict.Database.t;
}

val load : Workloads.Workload.t -> t
(** Compile, analyse, and profile on the primary dataset (memoised per
    workload name; safe to call from multiple domains).  [db] is the
    stored zero-count database with the primary profile's counts
    ({!Predict.Database.with_counts}).  A compile that runs, rather
    than being read from the store, records a [compile] span.  For a
    traced workload ({!Workloads.Workload.t}'s [traced]) it also fills
    the trace entry: the primary run is simulated once, by
    {!Sim.Trace_run.record}, inside a [profile] span, and that record
    gives both the profile and, replayed inside a [trace] span, the
    trace results; a trace entry that misses while the profile hits
    records the run inside its [trace] span.  The
    workload need not be a registry one: [bpredict] loads a MiniC file
    the same way, wrapped by {!Workloads.Workload.make}. *)

val load_all : unit -> t list
(** All benchmarks of {!Workloads.Registry.all}.  The independent
    per-workload pipelines fan out across the {!Par.Pool}; the
    returned list is in registry order regardless of [-j].
    Memoised: the [stage.load_all] span and its pool job run once per
    {!reset}. *)

val predictors :
  Predict.Database.t -> (string * Sim.Trace_run.prediction_bits) list
(** The three predictors of the paper's trace study: Loop+Rand,
    Heuristic (loop predictor + the prioritised heuristics + random
    default) and Perfect (from the database's own counts). *)

val traces_for : t -> Sim.Trace_run.result list
(** The {!predictors}' trace results on the workload's primary
    dataset, in that order, memoised and persisted; {!load} fills them
    for a traced workload. *)

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
