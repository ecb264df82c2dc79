(** The RAE controller: Robust Alternative Execution.

    This module is the paper's contribution.  It wraps a mounted base
    filesystem and exposes the same API; in the common case every call
    goes straight to the base at full speed, with RAE recording the
    operation and its outcome.  When the base hits a runtime error —
    a BUG/panic, a detected hang, a WARN, or a failed
    commit-barrier validation — the controller runs the recovery protocol
    of paper §3.2:

    + {b contained reboot} — the base's volatile state is discarded and
      rebuilt from the trusted on-disk state S0 (journal replay included);
      applications and their descriptors are preserved by RAE, not by the
      base;
    + {b state reconstruction} — a fresh shadow filesystem is attached to
      the device (read-only, behind a full fsck of S0).  The
      descriptor table recorded at the last commit is reinstated, then the
      recorded window replays in {e constrained mode}: operations that
      failed in the base are omitted, successful ones are re-executed and
      their outcomes cross-checked against the record (discrepancies are
      reported, and the shadow's answer stands).  The in-flight operation
      — whose result the application has not yet seen — runs in
      {e autonomous mode}: the shadow makes its own policy decisions and
      its outcome is what the application receives;
    + {b error avoidance} — the base never re-executes the triggering
      sequence.  It absorbs the shadow's overlay via
      {!Rae_basefs.Base.download_metadata} (metadata installed dirty
      through the base's own logic and checked by the commit barrier,
      not committed) and resumes.  The disk still holds S0, so the op
      log keeps the window and gains the in-flight op with the shadow's
      outcome; the next commit prunes it and re-cuts the checkpoint.
      That is the base's own group commit, or the one the controller
      runs in the op that reaches [ckpt_fold_interval] ops after resume.
      A second failure before it recovers cold from S0 over the whole
      log.  An in-flight [fsync]/[sync] is delegated back to the
      rebooted base after hand-off, since the shadow never persists
      anything, and its commit persists the hand-off.  A runtime error
      there starts a fresh recovery; the sync is retried at most three
      times, after which the operation returns [EIO] and the controller
      keeps serving.

    If recovery itself fails (the image is corrupt beyond the journal, or
    the shadow's invariant checks reject the replay), the controller
    degrades to fail-stop: the triggering operation and all subsequent
    ones return [EIO], but the process survives — availability degrades
    gracefully instead of crashing the machine. *)

type policy = {
  ckpt_enabled : bool;
      (** maintain a warm shadow {!Checkpoint} so recovery replays only
          the Δ suffix past the last fold instead of the whole window
          (default false) *)
  ckpt_fold_interval : int;
      (** fold the warm shadow forward every this-many recorded
          operations (default 32); also the most operations a
          recovery's hand-off waits for its commit, with the checkpoint
          on or off *)
  ckpt_fast_paths : bool;
      (** let the warm shadow use its caching fast paths while folding
          (default true); disabling reproduces the naive shadow for
          overhead measurements *)
  cross_check : bool;
      (** compare shadow outcomes against the record and report the
          mismatches; recovery keeps the shadow's answer either way
          (default true) *)
}
(** What the controller's callers choose.  The rest is fixed: a WARN
    before the op's commit triggers recovery, the cold path fscks S0
    before trusting it, the shadow runs its full runtime checks, a
    delegated sync is retried at most three times, and an op slower
    than 10 ms earns a [Slow_op] flight-recorder event. *)

val default_policy : policy

type stats = {
  ops : int;  (** operations executed through the controller *)
  recoveries : int;
  recoveries_failed : int;  (** 1 once degraded (fail-stop is terminal), else 0 *)
  discrepancies : int;
  window : int;  (** currently recorded (volatile) operations *)
  max_window : int;
  total_recorded : int;
  total_discarded : int;
}

type t

val make :
  ?policy:policy ->
  ?tracer:Rae_obs.Tracer.t ->
  ?events:Rae_obs.Events.t ->
  ?bundle_dir:string ->
  ?run_id:string ->
  device:Rae_block.Device.t ->
  Rae_basefs.Base.t ->
  t
(** Wrap a mounted base.  The controller registers itself on the base's
    commit hook to prune the oplog.  It keeps the newest 256 recovery
    reports and bundle paths; its counters and metrics count them all.

    The controller always owns a flight recorder: [events] when given,
    else a ring of its own.  Its clock is slaved to the controller's (the
    tracer's when one is given, else {!Rae_obs.Clock.now_ns}), and it is
    the one event stream of the whole stack: op completions, recovery
    begin and end, checkpoint cut/fold/poison/fallback, base
    bug-registry triggers, and the layers' spans as span-begin/span-end
    pairs whose end carries the duration:
    - the base's [base.commit], [blkmq.destage] (inside a commit) and
      [journal.replay] spans, and the warm checkpoint's [ckpt-cut] and
      [ckpt-fold] spans;
    - one [recovery] span per recovery, with one child span per §3.2
      phase, and an [fsck] child under the cold shadow attach.

    When [tracer] is given it is fed from the ring as events are
    recorded: the same spans, nested the same way, plus the
    [detect:<trigger>] instant at each recovery's start and the
    [ckpt-fallback:<reason>] instant when a seeded recovery falls back
    to the cold path.  When [bundle_dir] is given, every recovery
    completion and every fail-stop entry writes a postmortem black-box
    bundle there (see {!Rae_obs.Blackbox}); [run_id] is stamped into
    each bundle. *)

val exec : t -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome
(** Execute one operation with transparent recovery.  Never raises the
    base's runtime-error exceptions.  Equivalent to
    [exec_for ~corr:0 ~session:0]. *)

val exec_for : t -> corr:int -> session:int -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome
(** {!exec} with an origin for the flight recorder: [corr] is the
    client-supplied end-to-end correlation id (0 = none), [session] the
    serving-layer session id (0 = local).  Both land in the [Op_done] /
    [Slow_op] events so a postmortem bundle can name the requests a
    recovery impacted. *)

include Rae_vfs.Fs_intf.S with type t := t
(** The full filesystem API, routed through {!exec}. *)

val base : t -> Rae_basefs.Base.t

val degraded : t -> string option
(** [Some reason] once the controller has entered fail-stop mode. *)

val events : t -> Rae_obs.Events.t
(** The controller's flight recorder ({!make}'s [events], or its own). *)

val health : t -> Rae_obs.Events.health
(** Derived liveness: [Failstop] once degraded, [Recovering] inside a
    recovery, [Degraded] when the last recovery left cross-check
    discrepancies, [Healthy] otherwise.  Exported as the [rae_health]
    gauge by {!register_obs}. *)

val bundles : t -> string list
(** Paths of the newest 256 black-box bundles written, oldest first. *)

val bundle_dir : t -> string option

val set_bundle_context : t -> (unit -> (string * Rae_obs.Jsonx.t) list) -> unit
(** Register a provider of embedder-specific bundle fields, sampled at
    emission time.  An ["impacted_sessions"] key replaces the bundle's
    (otherwise empty) impacted-sessions list — the serving layer uses
    this to name the sessions and in-flight requests a recovery hit;
    any other keys are appended to the bundle object as-is. *)

val stats : t -> stats
val recoveries : t -> Report.recovery list
(** The newest 256 recovery reports, oldest first.  {!stats} counts
    every recovery. *)

val recent_recoveries : t -> int -> Report.recovery list
(** The newest [n] recovery reports still held (at most 256), oldest
    first.  O(n). *)

val discrepancies : t -> Report.discrepancy list
(** The cross-check mismatches in the reports {!recoveries} holds (the
    §4.3 testing signal); {!stats} counts every one ever observed. *)

val last_recovery : t -> Report.recovery option

val checkpoint_now : t -> (unit, string) result
(** Force a checkpoint cut.  Fails when checkpointing is disabled by
    policy, or when the op window is non-empty — a checkpoint is only
    sound at a journal-commit boundary (call {!sync} first).  A
    recovery's hand-off waiting for its commit keeps the window
    non-empty. *)

val checkpoint_stats : t -> Checkpoint.stats option
(** [None] when checkpointing is disabled by policy. *)

val checkpoint_valid : t -> bool
(** A warm checkpoint is available to seed the next recovery. *)

val phase_names : string list
(** The §3.2 pipeline step names, in order, as they appear in spans,
    [Report.phase] entries and phase-histogram metric names.  [seed] is
    emitted only by checkpoint-seeded recoveries (it replaces
    [shadow-attach] + [fd-reinstate]); cold recoveries emit the rest. *)

val register_obs : Rae_obs.Metrics.t -> t -> unit
(** Register the whole stack's metrics: the controller's counters and
    recovery/phase latency histograms ([rae_*]), the checkpoint's
    [rae_ckpt_*] family when [policy.ckpt_enabled], plus everything
    {!Rae_basefs.Base.register_obs} registers for the wrapped base. *)
