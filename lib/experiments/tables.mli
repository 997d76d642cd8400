(** Drivers regenerating the paper's Tables 1-3 and 5-7.

    Each driver prints a plain-text table in the paper's layout (C/D
    entries are "predictor miss % / perfect miss %", blank below 1%
    coverage, equal benchmark weights in means). *)

val covered_cells : Predict.Metrics.tally -> string list
(** A partial predictor's two cells in Tables 3 and 5: its coverage,
    then its C/D on the branches it covers; both blank when it covers
    under 1% of the executions. *)

val table1 : Format.formatter -> unit
(** Benchmark roster: name, description, language, code size, static
    branches. *)

val table2 : Format.formatter -> unit
(** Dynamic breakdown of loop vs non-loop branches; loop-predictor,
    perfect, target, and random miss rates; "big branch"
    concentration. *)

val table3 : Format.formatter -> unit
(** Each heuristic applied in isolation: coverage and miss/perfect. *)

val table5 : Format.formatter -> unit
(** The heuristics under the prioritised order Point, Call, Opcode,
    Return, Store, Loop, Guard: per-heuristic slice coverage and
    miss/perfect, plus the Default slice. *)

val table6 : Format.formatter -> unit
(** Final results: combined-heuristic coverage and miss, +Default, all
    branches, and the Loop+Rand baseline. *)

val table7 : Format.formatter -> unit
(** Means and standard deviations of Table 6 over all benchmarks and
    over "most" (excluding eqntott, grep, tomcatv, matrix300), with
    Tgt+Loop and Rnd+Loop for comparison. *)

val loop_shapes : Format.formatter -> unit
(** Section 3 supporting numbers: the fraction of dynamic loop-branch
    executions whose taken edge is {e not} a backward branch —
    the motivation for natural-loop analysis over BTFN. *)
