(** A small JSON reader and string escaper, with no external
    dependency.

    {!escape} is what {!Obs.trace_json} writes strings with; {!parse}
    reads back anything the writer emits, and is strict enough to
    serve as a validity check on an exported trace: unterminated
    strings, raw control characters, misspelt literals, missing
    separators and trailing bytes are all rejected.  Numbers are
    decoded as [float]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string
(** Raised by {!parse} on malformed input; the message names the
    problem and its byte offset. *)

val parse : string -> t
(** Parse one complete JSON document (surrounding whitespace allowed).
    Every string escape is decoded: a backslash before a quote,
    backslash, slash, [b], [f], [n], [r] or [t], and [\u] with four hex
    digits, which becomes the code point's UTF-8 encoding (surrogates
    are rejected).  Raises {!Bad}.  Test seam: the gates and
    [test_obs] read trace files back. *)

val member : string -> t -> t option
(** [member k v] is the value of field [k] when [v] is an object that
    has it.  Test seam, as {!parse}. *)

val escape : string -> string
(** The body of a JSON string literal for these bytes: a quote or
    backslash behind a backslash, newline, tab and carriage return as
    [\n], [\t] and [\r], other bytes below 0x20 as [\u00XX], every
    other byte verbatim. *)
