(** Span-based tracing for the recovery pipeline.

    A tracer records [B]egin/[E]nd span events and [i]nstant markers against
    a caller-supplied nanosecond clock (typically the virtual device clock
    plus CPU time, so spans have both ordering and non-zero extent).  The
    buffer is a growable array; a disabled tracer records nothing.  The
    recovery stack does not call it: a controller given a tracer feeds it
    from its flight recorder ({!Events.set_tap}).

    Events export to the Chrome [trace_event] JSON format, viewable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

type t

type event =
  | Begin of { name : string; cat : string; ts : int64 }
  | End of { name : string; ts : int64 }
  | Instant of { name : string; cat : string; ts : int64 }

val create : ?clock:(unit -> int64) -> ?max_events:int -> unit -> t
(** [clock] supplies nanosecond timestamps; defaults to {!Clock.now_ns},
    the monotonic wall clock.  The tracer starts {e disabled}.

    [max_events] caps the buffer: once full it becomes a ring that
    overwrites the oldest events, so a long soak run (e.g. an [rfsd]
    daemon) holds bounded memory.  Default [0] keeps the historical
    unbounded doubling, which bench runs rely on for complete traces.
    Values below 16 are clamped to 16. *)

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

val now : t -> int64
(** Read the tracer's clock (works even when disabled). *)

val span_begin : t -> ?cat:string -> string -> unit
(** Open a span.  Balanced against {!span_end} even across enable/disable
    toggles: a span opened while disabled records nothing when closed. *)

val span_end : t -> unit
(** Close the innermost open span.  No-op if none is open. *)

val instant : t -> ?cat:string -> string -> unit

val depth : t -> int
(** Number of currently open spans. *)

val events : t -> event list
(** Recorded events, oldest first (the retained window when capped). *)

val dropped : t -> int
(** Events overwritten by the ring since creation (always [0] when
    unbounded). *)

val clear : t -> unit
(** Drop recorded events (open-span bookkeeping is kept). *)

(** {1 Chrome trace_event export} *)

val to_chrome : t -> string
(** Serialise to Chrome [trace_event] JSON ([{"traceEvents":[...]}], one
    event per line, timestamps in microseconds).  Spans still open at
    export time are closed at the current clock, and [E] events whose
    [B] was overwritten by a capped ring are dropped, so the output is
    always balanced. *)

val write_chrome : t -> string -> unit
(** [write_chrome t path] writes {!to_chrome} output to [path]. *)

(** {1 Parser / validator} *)

type chrome_event = { ph : char; ev_name : string; ts_us : float }

val parse_chrome : string -> (chrome_event list, string) result
(** Parse a Chrome trace with {!Jsonx.parse}: the [traceEvents] list,
    each event's [ph], [name] and [ts]. *)

val validate_chrome : string -> (int, string) result
(** Check a Chrome trace for well-formedness: parses, [B]/[E] events
    balance like brackets, and timestamps are monotone non-decreasing.
    Returns the event count. *)
