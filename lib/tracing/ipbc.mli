(** Instructions-per-break-in-control analysis (Section 6).

    Turns the raw sequence-length histograms of {!Sim.Trace_run} into
    the quantities the paper reports: the profile-based IPBC average,
    the trace-based cumulative distributions of Graphs 4-11, and the
    {e dividing length} — the sequence length at which 50% of executed
    instructions are accounted for, which the IPBC average
    systematically underestimates when the length distribution is
    skewed. *)

type distribution = {
  label : string;
  total_instrs : int;
  total_breaks : int;
  ipbc : float;                (** total instrs / breaks: the
                                    profile-based average *)
  miss_rate : float;           (** all conditional branches *)
  by_instructions : float array;
  (** [.(j)]: cumulative fraction of executed instructions in
      sequences of length < [(j + 1) * Sim.Trace_run.bucket_width] —
      Graphs 4, 6-11.  Flat floats,
      so deriving a distribution allocates no tuple per bucket. *)
  by_breaks : float array;
  (** same x-axis, cumulative fraction of breaks — Graph 5 *)
}

val of_result : Sim.Trace_run.result -> distribution

val dividing_length : distribution -> int
(** Smallest bucket upper bound at which at least half the executed
    instructions are covered. *)

val fraction_below : distribution -> int -> float
(** Fraction of executed instructions in sequences shorter than the
    given length, read at the last bucket whose bound is at most that
    length (0 below the first bound). *)

val breaks_below : distribution -> int -> float
(** The same for breaks (Graph 5). *)

val model : miss_rate:float -> int -> float
(** The analytic model of Graph 12: with unit basic blocks and
    independent branches of miss rate [m], the fraction of executed
    instructions in sequences of length <= s is [1 - (1-m)^s]. *)
