(** Structured tracing and metrics.

    Two facilities behind one module:

    {b Spans} — [span ~name ~attrs f] times the execution of [f] and
    records a begin/end event into a per-domain buffer.  Recording is
    lock-free on the hot path: each domain appends to its own buffer
    (registered once, under a mutex, the first time the domain records
    anything) and the buffers are only walked at export time.  When
    tracing is disabled — the default — [span] costs a single branch
    on an atomic flag and calls [f] directly; nothing is allocated.

    Recorded spans export as Chrome [trace_event] JSON ([ph:"X"]
    complete events, microsecond timestamps, the domain id as [tid]),
    loadable in [chrome://tracing] or Perfetto.  [BALLARUS_TRACE=FILE]
    in the environment turns recording on at program start and writes
    the trace to [FILE] at process exit; a path that cannot be written
    is reported on stderr with the system's reason.

    {b Metrics} — a process-wide registry of named counters
    ({!Metrics}).  Counters are always on (atomic increments),
    independent of the span flag.

    Span durations have one store: the recorded events.  {!summaries}
    derives per-name count and exact nearest-rank quantiles from
    {!events}, so [bpredict stats] and the [BALLARUS_TRACE] file read
    the same data and cannot disagree.

    Timestamps come from [Unix.gettimeofday] — monotonic-ish: good
    enough to order and measure spans, not hardened against clock
    steps. *)

(** {1 Spans} *)

val enabled : unit -> bool
(** Whether spans are being recorded.  Test seam: tests that enable
    recording restore it. *)

val enable : unit -> unit
(** Start recording spans. *)

val disable : unit -> unit
(** Stop recording.  Already-recorded events are kept.  Test seam, as
    {!enabled}. *)

val span : name:string -> ?attrs:(string * string) list -> (unit -> 'a) -> 'a
(** [span ~name ~attrs f] runs [f], recording one complete event with
    begin time, duration, the calling domain's id, and [attrs].  The
    result (or exception, with its backtrace intact) passes through
    unchanged.  When disabled this is exactly [f ()] after one flag
    check. *)

type event = {
  name : string;
  attrs : (string * string) list;
  ts_us : float;  (** begin timestamp, microseconds *)
  dur_us : float;  (** duration, microseconds *)
  tid : int;  (** id of the domain that ran the span *)
}

val events : unit -> event list
(** Every event recorded so far, across all domains, in begin-time
    order.  Test seam: tests and gates count the spans a run
    recorded. *)

val reset_events : unit -> unit
(** Drop all recorded events.  Test seam, as {!events}. *)

type summary = {
  count : int;
  p50 : float;  (** nearest-rank median, seconds *)
  p95 : float;  (** nearest-rank 95th percentile, seconds *)
  max : float;  (** longest duration, seconds *)
}

val summaries : unit -> (string * summary) list
(** One summary per span name over {!events}, sorted by name.  The
    [q]-quantile is the [ceil (q * count)]-th smallest duration (at
    least the first), so every figure is a recorded duration. *)

val trace_json : unit -> string
(** The recorded events as a Chrome [trace_event] JSON document, its
    strings written with {!Json.escape}.  Test seam: [test_obs] parses
    it back. *)

val write_trace : string -> unit
(** Write {!trace_json} to a file.  Test seam: [obs-smoke] writes a
    trace mid-run. *)

(** {1 JSON} *)

module Json = Json
(** The reader and escaper behind the trace export. *)

(** {1 Metrics} *)

module Metrics : sig
  type counter

  val counter : string -> counter
  (** The counter registered under this name, created at zero on first
      use.  One instance per name, shared process-wide. *)

  val incr : ?by:int -> counter -> unit
  val value : counter -> int

  val counters : unit -> (string * int) list
  (** All registered counters, sorted by name.  Test seam: [test_obs]
      reads them; [dump] prints them. *)

  val reset : unit -> unit
  (** Zero every registered counter.  Test seam: tests read one run's
      counts. *)

  val dump : Format.formatter -> unit
  (** Human-readable list of the counters (the first half of the
      [bpredict stats] output). *)
end
