(** The typed error taxonomy of the supervision layer.

    Every failure crossing a fault boundary is classified into one of
    three kinds.  Every supervised task is deterministic, so no kind is
    retried: a failed task fails once, its kind names the cause in the
    failure banner, and the suite continues around it. *)

type kind =
  | Hard  (** a genuine bug or unrecoverable error *)
  | Fuel_exhausted  (** the interpreter's step budget ran out *)
  | Timeout  (** the task missed its wall-clock deadline *)

exception Timed_out of { task : string; seconds : float }
(** Raised by the supervisor when a task exceeds its deadline. *)

type t = {
  kind : kind;
  task : string;  (** supervisor label of the failed task *)
  message : string;
  backtrace : string option;
}

val kind_name : kind -> string
(** Lower-case hyphenated name, e.g. ["fuel-exhausted"]. *)

val kind_of_exn : exn -> kind
(** Classify an exception; {!Par.Pool.Task_failed} wrappers are peeled
    first so the inner exception decides. *)

val unwrap : exn -> exn
(** Strip any {!Par.Pool.Task_failed} wrappers. *)

val of_exn : ?backtrace:string -> task:string -> exn -> t

val pp_banner : Format.formatter -> t -> unit
(** The structured failure banner printed in place of a failed
    experiment's table. *)
