(** Differential oracles over the whole pipeline.

    Each oracle takes a MiniC source (usually one grown by {!Gen}) and
    cross-checks two independent computations of the same fact:

    - {b interp-vs-machine}: the AST interpreter and the compiled
      program running on the simulator must produce the same output
      checksum and consume the same inputs;
    - {b input}: generated programs read no input, so neither
      executor may consume any of the one int and one float the
      oracles' dataset holds;
    - {b opt-vs-unopt}: the peephole optimiser must not change
      observable behaviour;
    - {b flow}: the edge profile must be flow-consistent — every
      block's in-flow equals its out-flow, procedure entries balance
      call sites, and program entry balances exit ({!Cfg.Flow});
    - {b predict}: the branch database must agree with an independent
      re-derivation — classification and the Section 4.4 verdicts
      ({!Predict.Heuristic_ext}) from the CFG analyses, the Default
      coin from {!Predict.Database.rand_bit}, and the combined
      predictor honouring the loop/non-loop partition;
    - {b miss-matrix}: every cell of the 5040-order miss matrix, built
      from first-fire tables, must be bitwise equal to the combined
      predictor's miss rate computed branch by branch under that order;
    - {b trace-replay}: {!Sim.Trace_run.run}, which records a run and
      replays it, must return the same result list as break
      accounting done directly in the simulator's observers while the
      program executes ({!check_trace_replay}).

    A reported {!divergence} means a real bug somewhere in the
    pipeline (or in the generator's invariants). *)

type divergence = {
  oracle : string;  (** which oracle tripped *)
  detail : string;  (** human-readable description of the mismatch *)
}

val pp_divergence : Format.formatter -> divergence -> unit

val check_trace_replay : Mips.Program.t -> Sim.Dataset.t -> divergence list
(** The trace-replay oracle on one program and dataset, under two
    predictor sets: never and always taken, and three
    {!Predict.Database.rand_bit} coins.  The program must run without
    fault or exhausting its fuel. *)

val check_source : string -> divergence list
(** Run every oracle on one MiniC source.  Compilation or runtime
    faults are themselves reported as divergences (generated programs
    are fault-free by construction). *)
