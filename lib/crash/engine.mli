(** The B3-style crash-consistency scenario engine.

    Glues {!Recording}, {!Enumerate} and {!Oracle} into sweeps over
    bounded, targeted and crash-during-recovery workloads, and carries
    the operator workflows: postmortem bundles per divergence, replay of
    a single crash point by key, and greedy workload minimization. *)

type config = {
  prefix_stride : int;  (** thin out prefix points by this stride *)
  max_subset_bits : int;
      (** exhaustive subset enumeration up to this many writes/epoch *)
  samples_per_epoch : int;  (** rng-drawn masks for bigger epochs *)
  seed : int64;
  bundle_dir : string option;
      (** when set, write one [kind="crash"] postmortem bundle per
          diverging crash image (best-effort) *)
  run_id : string;
}

val default_config : config

type divergence = { d_label : string; d_key : string; d_reason : string }

type stats = {
  s_workloads : int;
  s_points : int;
  s_consistent : int;
  s_repaired : int;
  s_diverging : divergence list;
}

val empty_stats : stats
val merge : stats -> stats -> stats
val pp_stats : Format.formatter -> stats -> unit
val render_ops : Rae_vfs.Op.t list -> string

val sweep_recording :
  ?cfg:config -> ?from_event:int -> label:string -> Recording.t -> stats
(** Enumerate and judge every crash point of one recording. *)

val sweep_ops :
  ?cfg:config -> ?barriers:bool -> label:string -> Rae_vfs.Op.t list -> stats
(** Record a workload and sweep it.  [barriers:false] enumerates as if
    the device ignored flush barriers — the seeded-divergence fixture. *)

val sweep_bounded : ?cfg:config -> ?domains:int -> max_workloads:int -> unit -> stats
(** Sweep a deterministic sample of the deduplicated seq-3 space.  The
    workloads (each self-contained: fresh image, fresh mounts per crash
    point) fan out over [domains] domains (default 1) with
    {!Rae_par.Pool.map_array}, and the per-workload stats merge back in
    workload order, so the result — including the divergence list — is
    the same at every domain count. *)

val sweep_full : ?cfg:config -> ?domains:int -> unit -> stats
(** Sweep {e every} workload of the deduplicated bounded space
    ({!Bounded.all}, 2103 workloads at seq ≤ 3) — the exhaustive arm of
    the crash study.  Same fan-out and determinism contract as
    {!sweep_bounded}. *)

val sweep_targeted :
  ?cfg:config ->
  ?count:int ->
  ?seeds:int64 list ->
  ?profiles:Rae_workload.Workload.profile list ->
  unit ->
  stats
(** Sweep generated application-shaped workloads (default: varmail and
    metadata profiles) on a larger image. *)

val sweep_recovery :
  ?cfg:config -> ?count:int -> ?seed:int64 -> ?journal_len:int -> ckpt:bool -> unit -> stats
(** Crash during recovery: run a workload through the controller with a
    deterministic panic armed, then enumerate crash points only in the
    recovery pipeline's own write suffix, through the commit that
    persists its hand-off ({!Recording.record_recovery}).  With [ckpt]
    the recovery seeds from the warm checkpoint
    (crash-mid-checkpoint-fold coverage).  With [journal_len] (16 is
    small enough) the workload ends in a sync and a twelve-block write,
    so the hand-off chunks and commits inside the download.
    Raises [Invalid_argument] if the run did not seed when [ckpt] asks
    it to, if the hand-off committed inside the recovery without
    [journal_len], or did not chunk with it. *)

val first_divergence :
  ?cfg:config -> ?barriers:bool -> Rae_vfs.Op.t list -> divergence option
(** Sweep one workload and return its first diverging point, if any. *)

val minimize :
  ?cfg:config -> ?barriers:bool -> Rae_vfs.Op.t list -> Rae_vfs.Op.t list option
(** Greedy delta-debugging: repeatedly drop ops while some crash point
    still diverges.  [None] if the input never diverged. *)

val repro :
  ?barriers:bool -> key:string -> Rae_vfs.Op.t list -> (Oracle.outcome, string) result
(** Re-record the workload and judge exactly one crash point by key. *)
