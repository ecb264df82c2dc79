(** Recovery and discrepancy reporting.

    Discrepancies — the base and the shadow disagreeing on an operation's
    outcome — are the paper's §4.3 signal: "disagreements between the base
    and shadow indicate bugs in the base or missing conditions in the
    shadow.  Either way, reporting the discrepancies is necessary."  Every
    recovery produces a {!recovery} record usable both for operations
    (what happened, how long it took) and for post-error testing (which
    outputs disagreed). *)

type discrepancy = {
  d_seq : int;  (** position in the recorded window *)
  d_op : Rae_vfs.Op.t;
  d_base : Rae_vfs.Op.outcome;  (** what the base originally returned *)
  d_shadow : Rae_vfs.Op.outcome;  (** what the shadow computed *)
}

type trigger =
  | Panic of { bug : string; msg : string }
  | Hang_detected of { bug : string; msg : string }
  | Validation of { context : string; msg : string }
  | Warning_storm of { bug : string; msg : string }

type outcome = Recovered | Recovery_failed of string

type phase = { ph_name : string; ph_ns : int64 }
(** One timed step of the §3.2 recovery pipeline: wall-clock nanoseconds
    on the controller's clock ({!Rae_obs.Clock.now_ns}, or the attached
    tracer's clock, which defaults to it). *)

type recovery = {
  r_trigger : trigger;
  r_window : int;  (** recorded operations at the time of the error *)
  r_replayed : int;  (** constrained-mode operations re-executed *)
  r_skipped : int;  (** error-outcome operations omitted (paper §3.2) *)
  r_discrepancies : discrepancy list;
  r_handoff_blocks : int;  (** dirty blocks downloaded into the base *)
  r_delegated_sync : bool;  (** an in-flight fsync was handed back to the base *)
  r_seeded : bool;
      (** replay was seeded from the warm checkpoint: [r_replayed] counts
          only the Δ suffix past the fold cursor, not the whole window *)
  r_wall_seconds : float;
  r_phases : phase list;  (** per-phase durations, pipeline order *)
  r_outcome : outcome;
}

val trigger_to_string : trigger -> string
val pp_discrepancy : Format.formatter -> discrepancy -> unit
val pp_recovery : Format.formatter -> recovery -> unit
