(** Virtual clock, in nanoseconds.

    The simulated block device and block layer charge latency against a
    virtual clock rather than wall time, so that benchmarks measuring
    *simulated* device time (e.g. recovery-latency sweeps) are deterministic,
    while wall-clock timing measures the real CPU cost of the algorithms. *)

type t

val create : unit -> t
(** A fresh clock at time 0. *)

val now : t -> int64
(** Current virtual time in nanoseconds. *)

val advance : t -> int64 -> unit
(** [advance t ns] moves the clock forward; negative deltas are rejected.
    @raise Invalid_argument on negative [ns]. *)

val reset : t -> unit

val pp_duration : Format.formatter -> int64 -> unit
(** Pretty-print a nanosecond duration with an adaptive unit. *)
