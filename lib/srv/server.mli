(** The serving core: a protocol state machine multiplexing many client
    sessions onto one {!Rae_core.Controller}.

    The server is transport-agnostic and byte-driven: a transport feeds it
    raw bytes per connection ({!feed}) and drains response bytes
    ({!drain}); {!step} runs one scheduler turn.  A turn drains up to
    [batch_max] decoded requests across sessions — round-robin, one request
    per session per pass, each session capped at its
    [Session.max_ops_per_turn] rate quota — so dispatch overhead (the
    transport wakeup, recovery watermark check, notification sweep) is
    amortized over the whole batch while no client can monopolize a turn.

    Backpressure is refusal, not buffering: a request arriving on a session
    whose inflight queue is full is answered with a [Busy] frame carrying a
    retry-after hint and is dropped; server memory per session is bounded
    by [max_inflight] decoded requests plus transport buffers.

    Recovery transparency: requests dispatch through
    {!Rae_core.Controller.exec_for} (tagged with the session id and the
    client's correlation id for the flight recorder), so an operation
    that trips a base runtime error returns the shadow's
    answer and queued requests drain after hand-off.  After every turn the
    server compares the controller's recovery count against its watermark
    and pushes one [Note_recovered] frame (sequence number, trigger,
    wall-clock micros from {!Rae_core.Report}) per new recovery to every
    attached session; entering fail-stop pushes [Note_degraded] once. *)

type config = {
  batch_max : int;  (** requests dispatched per scheduler turn (default 64) *)
  session : Session.config;
  max_sessions : int;
  retry_after_ms : int;  (** hint carried by [Busy] frames *)
  idle_timeout : int;
      (** evict a session idle for this many turns, releasing its fds;
          [0] disables eviction *)
}

val default_config : config

type stats = {
  sessions : int;  (** currently attached *)
  conns_total : int;
  served : int;  (** operations dispatched to the controller *)
  busy : int;  (** Busy frames sent *)
  batches : int;  (** turns that dispatched at least one request *)
  frames_in : int;
  frames_out : int;
  evicted : int;
  queue_depth : int;  (** requests currently queued across sessions *)
  protocol_errors : int;
}

type t

val create : ?config:config -> ?now:(unit -> int64) -> Rae_core.Controller.t -> t
(** [now] feeds the per-op latency histogram (defaults to a CPU-time
    clock).

    The server adopts the controller's flight recorder (if any): session
    attach/evict/retry/detach land in it, dispatched ops carry their
    session id and the client's correlation id, and it registers itself
    as the controller's bundle context so postmortem bundles name the
    attached sessions and their in-flight [(req, corr)] pairs. *)

val set_metrics_source : t -> (unit -> string) -> unit
(** Provide the Prometheus exposition text served to [Metrics_req]
    frames (typically [fun () -> Rae_obs.Metrics.to_prometheus reg] over
    the registry everything is registered in).  Unset, [Metrics_req]
    answers with empty text. *)

(** {1 Transport edge} — one connection per client, identified by the id
    {!open_conn} returns.  All functions are total over ids: unknown or
    closed ids are ignored (reads return [""]). *)

val open_conn : t -> int
val feed : t -> int -> string -> unit

val drain : t -> int -> (bytes -> int -> int -> unit) -> unit
(** [drain t cid f] hands the connection's pending output to [f] as one
    slice [buf off len] and empties it; [f] is not called when nothing
    is pending.  Each connection keeps its output in one buffer that
    replies are encoded into in place, and the slice is borrowed from
    it: it is valid only during the call, so [f] copies whatever it
    keeps (a socket write copies it anyway). *)

val output : t -> int -> string
(** {!drain} into a fresh string ([""] when nothing is pending). *)

val has_output : t -> int -> bool
val conn_closed : t -> int -> bool
(** The server dropped this connection (protocol error, detach, eviction);
    the transport should flush remaining {!drain} output and close the link. *)

val close_conn : t -> int -> unit
(** Transport-observed disconnect: releases the session's fds. *)

(** {1 Scheduling} *)

val step : t -> int
(** Run one scheduler turn; returns the number of requests dispatched. *)

val stats : t -> stats

val register_obs : Rae_obs.Metrics.t -> t -> unit
(** Frames in/out, dispatch/busy counters, session and queue-depth gauges,
    batch-size and per-op latency histograms — the serving path's [--metrics]
    surface. *)
