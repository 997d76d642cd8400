(** Trace-based break-in-control accounting (Section 6).

    A {e break in control} is a mispredicted conditional branch, an
    indirect jump other than a procedure return, or an indirect call.
    The compiled programs make no indirect call, so the indirect
    breaks here are jump-table transfers.
    Each break ends a sequence of instructions; the sequences
    partition the instruction trace.  For each static predictor the
    accounting keeps the position of the previous break and buckets
    each completed sequence's length, exactly reproducing the paper's
    methodology (1000 buckets of width 10, last bucket open-ended).

    Like QPT, which traced a program by recording only its branch
    outcomes and regenerating the path from the control-flow graph, a
    run is measured in two steps.  {!record} executes the program
    once, collecting its edge profile, one bit per executed
    conditional branch and the table index of each jump-table
    transfer.  {!replay} then walks the decoded program from transfer
    to transfer along {!Decode.dproc}'s [runs], driven by that
    record, and does every predictor's accounting without executing
    any ALU, memory or register work.  Several predictors are
    measured in one replay, since static predictions cannot influence
    the program's behaviour. *)

type prediction_bits = bool array array
(** [bits.(proc).(pc)] = predict taken; meaningful only at
    conditional-branch pcs. *)

type result = {
  label : string;
  seq_counts : int array;  (** sequences per length bucket *)
  seq_sums : int array;    (** summed lengths per bucket *)
  breaks : int;
  cond_misses : int;       (** mispredicted conditional branches *)
  cond_execs : int;        (** conditional branches executed *)
  instr_count : int;
}

val bucket_width : int
(** 10, as in the paper. *)

val nbuckets : int
(** 1000; bucket j holds lengths in [10j, 10j+9], the last bucket
    everything at or above 9990. *)

type recording
(** One execution's control flow: its decoded program, its edge
    profile, its conditional-branch outcomes packed eight to a byte,
    and its jump-table indices. *)

val record :
  ?decoded:Decode.t -> Mips.Program.t -> Dataset.t -> recording
(** Execute once, as {!Profile.run} does, and record the run's
    control flow.  [decoded], when given, must be the decoding of this
    very program (checked by physical equality) and skips the
    per-call decode pass. *)

val profile : recording -> Profile.t
(** The run's edge profile: equal to {!Profile.run}'s on the same
    program and dataset. *)

val jump_table_transfers : recording -> int
(** Jump-table transfers the run made. *)

val replay :
  recording -> (string * prediction_bits) list -> result list
(** Measure every labelled predictor on the recorded run.  The
    predictions are folded into one int per (proc, pc) first, a bit
    per predictor, so a branch's mispredictions are one XOR with its
    outcome; more than [Sys.int_size - 1] predictors raise
    [Invalid_argument]. *)

val run :
  ?decoded:Decode.t ->
  Mips.Program.t -> Dataset.t -> (string * prediction_bits) list ->
  result list
(** [replay (record ?decoded prog input) predictors]. *)
