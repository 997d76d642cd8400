(** The fuzzing loop: generate, check, shrink, report.

    Each case [i] derives its own seed with {!Gen.case_seed}, grows a
    program, and runs every {!Oracle} over it.  A failing case is
    shrunk with {!Shrink.minimize} (re-running the oracles as the
    predicate) and both the original and the minimal reproducer are
    written under {!config.failure_dir}:

    - [case_<i>.minic] — the shrunk source,
    - [case_<i>.orig.minic] — the program as generated,
    - [case_<i>.report] — the divergences of both. *)

type config = {
  seed : int;         (** run seed; each case reseeds from it *)
  count : int;        (** number of programs *)
  max_size : int;     (** statement budget ceiling per program *)
  failure_dir : string;
}

val default : config
(** seed 42, 500 cases, size 24, failures under [_fuzz_failures/]. *)

type failure = {
  index : int;                       (** failing case number *)
  case_seed : int;
  divergences : Oracle.divergence list;
  source : string;                   (** shrunk source *)
}

type outcome = { cases : int; failures : failure list }

val case : seed:int -> max_size:int -> int -> int * Gen.program
(** [case ~seed ~max_size i] is case [i] of a run: the seed it derives
    with {!Gen.case_seed} and the program grown from it, under a
    statement budget between 6 and [max_size].  {!run}, {!run_case}
    and [bpredict fuzz --dump] all generate through it. *)

val run_case : seed:int -> max_size:int -> int ->
  string * Oracle.divergence list
(** Generate and check case [i] with every oracle; returns the source
    and any divergences.  Test seam: [test_fuzz]
    checks single cases. *)

val run : ?log:(string -> unit) -> config -> outcome
(** The full loop.  [log] receives one line per failure and a
    progress line every 100 cases. *)
