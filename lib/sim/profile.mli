(** Edge profiling — what QPT's instrumented executables produced.

    For every conditional branch the profile records how many times
    control passed to the target and to the fall-through successor. *)

type t = {
  taken : int array array;  (** [taken.(proc).(pc)] *)
  fall : int array array;
  stats : Machine.stats;
}

val run : ?decoded:Decode.t -> Mips.Program.t -> Dataset.t -> t
(** Execute and collect the edge profile.  [decoded], when given, must
    be the decoding of this very program (checked by physical
    equality) and skips the per-call decode pass. *)

val branch_execs : t -> int
(** Total dynamic conditional-branch executions. *)
