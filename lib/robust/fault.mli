(** The typed error taxonomy of the supervision layer.

    Every failure crossing a fault boundary is classified into one of
    two kinds.  Every supervised task is deterministic, so it either
    finishes or fails the same way every time: no kind is retried, the
    kind names the cause in the failure banner, and the suite
    continues around it. *)

type kind =
  | Hard  (** a genuine bug or unrecoverable error *)
  | Fuel_exhausted  (** the interpreter's step budget ran out *)

type t = {
  kind : kind;
  task : string;  (** supervisor label of the failed task *)
  message : string;
  backtrace : string option;
}

val kind_name : kind -> string
(** Lower-case hyphenated name, e.g. ["fuel-exhausted"]. *)

val kind_of_exn : exn -> kind
(** [Fuel_exhausted] for {!Sim.Machine.Out_of_fuel}, [Hard] otherwise. *)

val of_exn : ?backtrace:string -> task:string -> exn -> t

val pp_banner : Format.formatter -> t -> unit
(** The structured failure banner printed in place of a failed
    experiment's table. *)
