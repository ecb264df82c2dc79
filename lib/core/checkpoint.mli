(** Warm-shadow checkpointing: O(Δ) recovery replay.

    Cold recovery reconstructs application-visible state by replaying the
    {e whole} recorded op window against the trusted on-disk state S0, so
    its latency grows linearly with the window.  This module keeps a
    {b warm shadow}: a second {!Rae_shadowfs.Shadow} instance, beside the
    base and on the controller's own domain, that is

    - {b cut} (re-based) at journal-commit boundaries — the just-committed
      S0 plus its descriptor table; the read-only attach to S0 waits for
      the first fold or seed that uses it, and
    - {b folded} forward every [fold_interval] recorded operations, by
      constrained re-execution of the oplog suffix it has not seen yet,
      pure reads left out ({!Rae_vfs.Op.is_pure_read}: they change
      nothing recovery rebuilds).

    On a detected bug, {!seed} hands the warm shadow itself to recovery —
    overlay, descriptor table, clock, caches and allocation rotor, no
    copy — and recovery replays only the Δ suffix past the fold
    {!cursor}.  Because the warm overlay holds exactly the blocks dirtied
    since the last commit, the hand-off download stays precisely the
    differential set — identical to what cold replay would reconstruct.
    The checkpoint is spent by the hand-over; the re-cut at the commit
    that persists the hand-off re-arms it.

    The warm shadow never writes to disk: it is an ordinary shadow over a
    read-only device handle, and this module is under the shadow-purity
    lint rule.  A fold failure or a rejected attach {e poisons} the
    checkpoint (drops the warm instance): a shadow violation, a device
    error, or a folded op whose outcome diverges from the base's.  A
    seeded recovery that fails after the hand-over falls back to cold
    recovery, so checkpointing can only ever change recovery latency,
    never its semantics. *)

type t

type stats = {
  cuts : int;  (** re-bases onto a freshly committed S0 *)
  folds : int;  (** fold batches applied to the warm shadow *)
  folded_ops : int;  (** operations the folds executed (pure reads are not folded) *)
  fold_divergences : int;  (** constrained-mode mismatches seen while folding (each poisons) *)
  seeded : int;  (** recoveries seeded from the checkpoint *)
  fallbacks : int;
      (** seeded recoveries that fell back to the cold path, whether the
          seed itself failed or a later phase did *)
  poisons : int;
      (** checkpoints discarded because a fold failed or the deferred
          attach was rejected, by a fold or by a seed; a fallback after a
          hand-over discards nothing and is not counted here *)
}

val create :
  events:Rae_obs.Events.t -> ?fast_paths:bool -> fold_interval:int -> Rae_block.Device.t -> t
(** No checkpoint exists until the first {!cut}.  The warm instance runs
    the shadow's full runtime checks and attaches without fsck (the
    fold's continuous validation substitutes).
    [fast_paths] (default [true]) controls the warm shadow's caching fast
    paths — disabling it reproduces the naive shadow, which the benches
    use to price the fold before/after the fast-path work.  [events] is
    the controller's flight recorder: a cut is a [ckpt-cut] span, a fold
    a [ckpt-fold] span with a [Ckpt_fold] event inside, and poisons and
    fallbacks are [Ckpt_poison] and [Ckpt_fallback] events. *)

val cut :
  t ->
  window:int ->
  fds:(Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list ->
  next_seq:int ->
  commit_seq:int64 ->
  (unit, string) result
(** Re-base the checkpoint on the current on-disk state.  Sound only at a
    journal-commit boundary, so it {b refuses} when [window > 0]: a
    non-empty window means the disk does not yet reflect the recorded
    suffix and a cut would capture an S0 the oplog is not relative to.
    [fds] is the S0 descriptor snapshot, [next_seq] the oplog's next
    sequence number, [commit_seq] the journal's durable commit sequence.
    A refused cut leaves the previous checkpoint as it was.

    The cut reads nothing: attaching the warm shadow (the strict
    superblock and bitmap decode, then reinstating [fds]) is deferred to
    the first {!fold} or {!seed}, and a failure there poisons the
    checkpoint.  This is sound because the device changes only at a
    commit and every commit re-cuts, so the deferred attach reads the S0
    this cut named. *)

val due : t -> next_seq:int -> bool
(** Has the unfolded suffix reached [fold_interval] recorded operations
    (pure reads included)?  False when no valid checkpoint exists. *)

val fold : t -> Oplog.t -> unit
(** Advance the warm shadow through the oplog entries with
    [seq >= cursor], leaving out the pure reads, in one constrained-mode
    batch, then move the cursor to the oplog's [next_seq], past the reads
    too.  The first fold after a cut attaches the warm shadow first,
    inside the fold's span.  A {!Rae_shadowfs.Shadow.Violation}, a
    device error or a divergence poisons the checkpoint instead of
    escaping — the hot path never observes fold failures.  Records a
    [ckpt-fold] span. *)

val seed : t -> (Rae_shadowfs.Shadow.t * int, string) result
(** Hand the warm shadow to recovery, attaching it to S0 with S0's
    descriptors first when the last cut deferred that, and return it with
    the fold cursor: recovery replays only entries with [seq >= cursor].
    No copy is made, so afterwards the checkpoint is spent ({!valid} is
    false) until the next {!cut}, whether [seed] returned or raised.
    Fails if no valid checkpoint exists or the attach is rejected (which
    poisons it).  A device error ([Rae_block.Device.Io_error]) or a
    {!Rae_shadowfs.Shadow.Violation} during that attach poisons the
    checkpoint and is raised; the controller's recovery turns it into a
    cold fallback. *)

val note_fallback : t -> reason:string -> unit
(** Record that a seeded recovery fell back to the cold path, and why:
    counted, and a [Ckpt_fallback] event in the ring. *)

val valid : t -> bool
val cursor : t -> int

val base_seq : t -> int64
(** Journal commit sequence of the S0 the checkpoint is based on. *)

val stats : t -> stats

val register_obs : Rae_obs.Metrics.t -> t -> unit
(** Register the [rae_ckpt_*] counter/gauge family. *)
