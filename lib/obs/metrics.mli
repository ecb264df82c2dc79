(** The unified metrics registry.

    One registration surface for every subsystem's counters, gauges and
    latency histograms, replacing the per-subsystem ad-hoc [stats] records
    as the way to observe a running RAE stack.  Metrics are {e pull-based}:
    registering a metric stores a sampling closure over the subsystem's own
    mutable counters, so the hot path pays nothing — no metric objects are
    touched per operation; state is read only when {!snapshot} (or the
    prometheus exporter) runs.

    Histograms are the exception: they own their state (log-bucketed
    counts) and are fed explicitly via {!observe}, at a fixed cost with no
    allocation.  RAE feeds recovery and recovery-phase latencies, which are
    off the common path, and the serving layer's per-dispatch latency and
    batch size ([rae_srv_op_ns], [rae_srv_batch_size]), which are on it.

    Every counter counts up for the life of the process; there is no reset.
    To measure a window, diff two {!snapshot}s taken at its ends. *)

(** {1 Log-bucketed histograms} *)

type histogram
(** Power-of-two bucketed histogram of non-negative [int64] samples
    (nanoseconds, typically).  Bucket [i] holds samples in
    [[2{^i}, 2{^i+1})]; bucket 0 also absorbs zero.  Fixed footprint, no
    allocation per {!observe}. *)

val histogram : unit -> histogram
val observe : histogram -> int64 -> unit
(** Record one sample.  Negative samples are clamped to zero. *)

val h_count : histogram -> int
val h_sum : histogram -> float
val h_max : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) by linear
    interpolation inside the covering bucket.  Monotone in [q]; returns 0
    on an empty histogram. *)

(** {1 The registry} *)

type value =
  | Counter of int
  | Gauge of float
  | Histo of { count : int; sum : float; p50 : float; p90 : float; p99 : float; max : float }

type t

val create : unit -> t

val register_counter : t -> ?help:string -> string -> (unit -> int) -> unit
(** Register a monotone counter sampled by the closure.  Re-registering a
    name replaces the previous metric — reboot-style re-registration is
    legal. *)

val register_gauge : t -> ?help:string -> string -> (unit -> float) -> unit
val register_histogram : t -> ?help:string -> string -> histogram -> unit

val snapshot : t -> (string * value) list
(** Sample every registered metric, sorted by name. *)

val find : t -> string -> value option

val names : t -> string list

val to_prometheus : t -> string
(** Prometheus text exposition: counters and gauges as single samples,
    histograms as summaries ([_count]/[_sum] plus 0.5/0.9/0.99 quantile
    lines).  Metric names are sanitised to [[a-zA-Z0-9_:]]. *)

(** {1 JSON snapshot export} *)

val value_json : value -> Jsonx.t

val json : t -> Jsonx.t
(** {!snapshot} as a JSON object keyed by metric name; counters and
    gauges carry a [value], histograms their count/sum/quantiles.  This
    is what black-box bundles embed. *)

val to_json : t -> string
