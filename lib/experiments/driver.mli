(** Experiment registry: every table and figure by name — and the
    supervised suite runner that reports a failed experiment and
    carries on with the rest.  [bpredict experiment] and [bpredict
    stats] both run through {!run_list}: the suite ({!all}, prewarmed)
    for [all], one experiment otherwise. *)

type experiment = {
  id : string;       (** e.g. "table2", "graph4" *)
  title : string;
  run : Format.formatter -> unit;
  quick_run : (Format.formatter -> unit) option;
      (** cheaper variant used by [run_list ~quick:true], e.g. the
          trial-capped subset experiment *)
}

val all : experiment list
(** Every reproduction target of DESIGN.md's experiment index, in
    paper order, plus the ablations. *)

val find : string -> experiment option

val prewarm : ?quick:bool -> unit -> unit
(** Fill every memo table the experiments read — benchmarks, traces,
    per-dataset databases, the per-order averages (under a
    [stage.miss_matrix] span) and the subset walk — in parallel on the
    {!Par.Pool}.  On a warm store nothing is derived: the
    miss matrix is built only when the averages or the walk miss the
    store.  [quick] (default
    [false]) walks the subset experiment's [--quick] cap
    ({!Orderings.quick_max_trials}) instead of all 705,432 trials. *)

(** {1 Supervised suite execution} *)

type summary = {
  passed : int;
  failed : int;
  results : (string * Robust.Supervise.status) list;
      (** (experiment id, status): [Completed] when the experiment
          printed its table *)
}

val run_list :
  ?quick:bool -> ?warm:bool -> experiment list ->
  Format.formatter -> summary
(** Run the given experiments after a supervised parallel {!prewarm}
    ([warm], default [true] — pass [false] for a single experiment
    that should only compute what it reads), each inside a
    {!Robust.Supervise} fault boundary and all of them inside one
    [stage.render] span.  The experiments render across the
    {!Par.Pool}, each into a private buffer, and are
    printed in list order once all have finished, so the output is
    byte-identical at any width.  A failed experiment prints a
    structured failure banner in place of its table, with no partial
    output, and the suite continues.  Whatever a failed prewarm left
    cold is computed on demand inside the render, sequentially within
    each experiment (a {!Par.Pool.parallel_map_list} nested in a task
    runs inline).
    [quick] (default [false]) renders each experiment's [quick_run]
    where it has one and prewarms with the same cap.  Only experiment
    banners, tables and failure banners go to the formatter — the
    summary does not, so callers can diff table output
    byte-for-byte. *)

val exit_code : summary -> int
(** [0] when no experiment failed, [3] otherwise — distinct from the
    CLI's usage (1) and machine-fault (2) exits. *)

val pp_summary : Format.formatter -> summary -> unit
(** The passed/failed report, one line per failed experiment.
    Callers usually print it to stderr. *)
