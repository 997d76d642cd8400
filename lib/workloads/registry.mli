(** The full benchmark roster, mirroring the paper's Table 1. *)

val all : Workload.t list
(** All 23 workloads: integer ("C") group first, floating-point ("F")
    group second, each group ordered as in Table 1. *)

val find : string -> Workload.t
(** Lookup by name.  Raises [Not_found]. *)

val traced : unit -> Workload.t list
(** The Section 6 trace-experiment subset (gcc, lcc, qpt, xlisp,
    doduc, fpppp, spice2g6). *)

val without : string list -> Workload.t list
(** All workloads except the named ones — e.g. the paper drops
    matrix300 from the ordering study and {e eqntott, grep, tomcatv,
    matrix300} from the "most" aggregate of Table 7. *)
