(** Plain-text table rendering for the experiment reports. *)

val render : Format.formatter -> header:string list -> string list list -> unit
(** Column-aligned table with a rule under the header: the first column
    left-aligned, the others right-aligned.  Rows shorter than the
    header are right-padded with blanks. *)

val pct : float -> string
(** A percentage like the paper prints them: [0.224 -> "22"];
    ["-"] for NaN. *)

val pct1 : float -> string
(** One decimal: [0.224 -> "22.4"]. *)

val ratio : float -> float -> string
(** The paper's C/D notation, e.g. ["22/15"]. *)
