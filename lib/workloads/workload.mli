(** The synthetic benchmark suite.

    Each workload is a MiniC program standing in for one of the
    paper's 23 benchmarks (Table 1).  The stand-ins reproduce the
    control-flow {e class} of their namesakes — a pointer-chasing
    interpreter for xlisp, an LZW coder for compress, a max-reduction
    mesh sweep for tomcatv, and so on — because the paper's results
    depend on branch-behaviour classes rather than on the exact SPEC
    sources (which are proprietary and DEC-Ultrix-specific).

    Every workload ships at least two datasets so the cross-dataset
    experiment (Section 7, Graph 13) can run; the first dataset is the
    primary one used by Tables 2-7. *)

type lang = C | F
(** The paper's two groups: integer-dominated C programs and
    floating-point Fortran programs. *)

type t = {
  name : string;
  description : string;
  lang : lang;
  spec : bool;  (** marked with [*] in Table 1 (SPEC89 member) *)
  source : string;  (** MiniC source text *)
  datasets : Sim.Dataset.t list;
  traced : bool;  (** part of the Section 6 instruction-trace set *)
}

val make :
  ?spec:bool -> ?traced:bool -> name:string -> description:string ->
  lang:lang -> datasets:Sim.Dataset.t list -> string -> t

val compile : t -> Mips.Program.t
(** Compile the workload.  Not memoised: the suite compiles each
    workload once, inside the memoised [Experiments.Bench_run.load]. *)

val primary_dataset : t -> Sim.Dataset.t

val pp_lang : Format.formatter -> lang -> unit

val seeded_dataset :
  name:string -> params:int list -> size:int -> seed:int -> Sim.Dataset.t
(** Convenience constructor: [params] become the first integers the
    program [read()]s, followed by [size] pseudo-random integers; the
    float stream holds [size] pseudo-random values in [0, 1). *)
