(** Always-on flight recorder: a fixed-memory ring of structured events.

    The recorder keeps the last [capacity] events that led up to {e now}
    — op completions with errno and latency, the layers' spans (a
    recovery and its phases, group commits, destages, journal replay,
    fsck, checkpoint cuts and folds), checkpoint poisons and fallbacks,
    bug-registry triggers, session lifecycle, degradation notes and
    slow-op records — so a postmortem bundle ({!Blackbox}) can show what
    the system was doing, and where a recovery's time went, when a
    recovery or fail-stop hit.  It is the one event stream below the
    controller: a {!Tracer} is fed from it through {!set_tap}.

    Recording is allocation-free: the ring is struct-of-arrays over
    pre-allocated [int]/[string] slots, and every [record_*] writes
    scalars plus {e existing} strings (op kinds and errnos are constant
    literals).  Cost is bounded by the clock read.  The typed {!event}
    view is built only on the read side, and for a tap. *)

type body =
  | Op_done of { kind : string; errno : string; lat_ns : int; corr : int; session : int }
      (** one executed operation; [errno = ""] means success *)
  | Slow_op of { kind : string; lat_ns : int; threshold_ns : int; corr : int; session : int }
      (** an op whose latency crossed the slow-op threshold *)
  | Recovery_begin of { trigger : string }
  | Recovery_end of { ok : bool; seeded : bool; replayed : int }
  | Span_begin of { name : string }
  | Span_end of { name : string; ns : int }  (** [ns]: the span's duration *)
  | Ckpt_fold of { ops : int }
  | Ckpt_poison
  | Ckpt_fallback of { reason : string }
      (** a seeded recovery fell back to the cold path *)
  | Bug_fired of { id : string }
  | Session_event of { action : [ `Attach | `Evict | `Retry | `Detach ]; session : int }
  | Degradation of { reason : string }

type event = { seq : int;  (** global event number, monotone from 0 *) ts_ns : int; body : body }

(** Derived liveness state, exported as the [rae_health] gauge for the
    future per-shard fleet: [Failstop] once the controller degrades,
    [Recovering] inside a recovery, [Degraded] when the last recovery
    left discrepancies, [Healthy] otherwise. *)
type health = Healthy | Recovering | Degraded | Failstop

val health_to_string : health -> string
(** ["OK"] / ["RECOVERING"] / ["DEGRADED"] / ["FAILSTOP"]. *)

val health_code : health -> int

type t

val create : ?capacity:int -> ?clock:(unit -> int) -> unit -> t
(** [capacity] (default 1024) rounds up to a power of two; [clock]
    returns nanoseconds (defaults to {!Clock.now_ns}, the monotonic wall
    clock). *)

val set_clock : t -> (unit -> int) -> unit

val set_tap : t -> (body -> unit) -> unit
(** From now on, call [f] with every [Span_begin], [Span_end],
    [Recovery_begin] and [Ckpt_fallback] as it is recorded, on the
    recording domain.  This is how a {!Tracer} is fed from the ring;
    only these events are materialized for the tap. *)

val capacity : t -> int

val total : t -> int
(** Events ever recorded (≥ {!retained}). *)

val retained : t -> int
val dropped : t -> int
val clear : t -> unit

(** {1 Recording — allocation-free} *)

val record_op : t -> kind:string -> errno:string -> lat_ns:int -> corr:int -> session:int -> unit
val record_slow_op :
  t -> kind:string -> lat_ns:int -> threshold_ns:int -> corr:int -> session:int -> unit

val record_recovery_begin : t -> trigger:string -> unit
val record_recovery_end : t -> ok:bool -> seeded:bool -> replayed:int -> unit

val span_begin : t -> string -> int
(** Record a [Span_begin] and return its timestamp, for {!span_end}. *)

val span_end : t -> string -> since:int -> int
(** Record the [Span_end] of the span {!span_begin} opened at [since];
    the event carries the span's duration, which is also returned. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span, closed on exception too. *)

val record_ckpt_fold : t -> ops:int -> unit
val record_ckpt_poison : t -> unit
val record_ckpt_fallback : t -> reason:string -> unit
val record_bug_fired : t -> id:string -> unit
val record_session : t -> [ `Attach | `Evict | `Retry | `Detach ] -> session:int -> unit
val record_degraded : t -> reason:string -> unit

(** {1 Read side} *)

val tail : ?n:int -> t -> event list
(** The last [n] (default: all retained) events, oldest first. *)

val body_kind_string : body -> string
val event_json : event -> Jsonx.t
val to_json : ?n:int -> t -> Jsonx.t
