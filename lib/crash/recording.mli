(** Recording phase of the crash-point enumerator.

    Runs a bounded workload over a crashsim-traced device and captures
    everything the offline enumerator needs: the device-level write/flush
    stream, the base image the stream starts from, and one spec snapshot
    per journal-commit boundary — the legal durable states any crash
    image materialized from the stream may recover to. *)

type boundary = {
  b_index : int;
  b_commit_seq : int64;
  b_op : int;  (** ops covered by this commit (1-origin count) *)
  b_event : int;  (** events recorded when the commit completed *)
  b_spec : Rae_specfs.Spec.t;
}

type t = {
  events : Rae_block.Crashsim.event array;
  boundaries : boundary array;  (** [boundaries.(0)] is the fresh image *)
  base_image : bytes array;
  nblocks : int;
  ninodes : int;
  commit_interval : int;
  ops : Rae_vfs.Op.t array;
  hazards : int list array;
      (** per op: inos whose on-medium content the op may tear once the
          op is no longer covered by a fully flushed commit *)
  barriers : bool;
      (** [false]: enumerate as if the device ignored flush barriers
          (the seeded-divergence fixture) *)
  recovery_from : int option;
      (** first event of the recovery-pipeline write suffix, when the
          recording drove a crash-mid-recovery run *)
  seeded_recovery : bool;  (** that recovery seeded from a checkpoint *)
  handoff_deferred : bool;
      (** that recovery left its hand-off dirty for a later commit (false
          when the hand-off chunked and committed inside the download) *)
}

val block_size : int

val record :
  ?nblocks:int ->
  ?ninodes:int ->
  ?commit_interval:int ->
  ?barriers:bool ->
  Rae_vfs.Op.t list ->
  t
(** Format a fresh image, mount the base over a tracing crashsim, run the
    workload in lockstep with a spec model, and snapshot the spec at every
    group-commit boundary.  The snapshot taken when a commit fires already
    includes the op the commit ran inside (the base commits {e after} the
    mutation). *)

val record_recovery :
  ?nblocks:int ->
  ?ninodes:int ->
  ?journal_len:int ->
  ?commit_interval:int ->
  ?ckpt:bool ->
  ?fold_interval:int ->
  Rae_vfs.Op.t list ->
  t
(** Same lockstep run through the controller with a deterministic panic
    armed on a reserved path component ({!trigger_component}); the
    workload is extended with one op that touches it and
    [fold_interval + 1] creates after it.  Events past [recovery_from]
    are the recovery pipeline's own writes and the commit that persists
    its hand-off: journal replay inside the contained reboot, then the
    commit the controller forces at the tail's [fold_interval]-th op.
    So crash points in that suffix model power failing {e during}
    recovery and between its resume and that commit.  With a small
    [journal_len] (mkfs's journal length) a large hand-off instead
    commits in chunks inside the download.  With [ckpt] the recovery
    seeds from the warm checkpoint, covering the
    crash-mid-checkpoint-fold path.  @raise Invalid_argument if the run
    degrades to fail-stop or the panic never triggers. *)

val trigger_component : string

val hazard_inos : Rae_specfs.Spec.t -> Rae_vfs.Op.t -> int list
(** Inos whose on-medium bytes [op] may tear (content writes, truncates,
    and frees that allow block reuse), resolved against the pre-op spec. *)

val dirty_after : t -> boundary -> Rae_vfs.Types.ino -> bool
(** [dirty_after t lo] flags every ino a post-[lo] op may have torn —
    the relaxation set handed to {!Rae_core.Differential.crash_states_equal}
    when comparing against boundary [lo] or later. *)

val write_count : t -> int
(** Number of write events in the recorded stream. *)
