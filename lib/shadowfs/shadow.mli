(** The shadow filesystem.

    The paper's robustness-first alternative implementation (§2.3, §3.3):

    - {b single-threaded, synchronous}: every operation runs to completion
      against the device, no queues, no asynchronous state.  Path lookup
      conceptually walks from the root inode; with [fast_paths] (the
      default) the walk is served from in-memory read caches — decoded
      inodes, per-directory name indexes and a generation-guarded
      resolution cache — that are provably coherent because every mutation
      funnels through the same few writers.  Setting [fast_paths] to
      [false] restores the literal walk-and-scan execution (the two are
      property-tested equivalent);
    - {b never writes to disk}: all updates land in a copy-on-write
      {!Overlay}; {!dirty_blocks} is the recovery hand-off payload;
    - {b extensive runtime checks}: with [checks] enabled (the default)
      every structural read verifies checksums and structure, every
      allocator transition is double-checked against the bitmaps, and the
      superblock summaries are revalidated after every autonomous mutation
      and at the end of every constrained window.  A failed
      check raises {!Violation} — the shadow refuses to continue on a bad
      image rather than corrupting further;
    - {b same API and on-disk format as the base}: it satisfies
      {!Rae_vfs.Fs_intf.S} over rfs images, so traces recorded against the
      base replay directly.

    [fsync]/[sync] are accepted as no-ops: the shadow has nothing volatile
    to flush because it never writes; during recovery RAE delegates real
    sync work back to the rebooted base (paper §3.3, "API support"). *)

exception Violation of string
(** An invariant check failed: the input image or a recorded operation is
    inconsistent.  Recovery aborts safely when this escapes. *)

type config = {
  checks : bool;  (** runtime invariant checking (default true) *)
  max_fds : int;
  fast_paths : bool;
      (** serve lookups from coherent in-memory caches and defer
          bitmap/superblock write-back to mutation boundaries (default
          true).  [false] gives the naive walk-everything execution —
          observably equivalent, and kept as the benchmark baseline. *)
}

val default_config : config

type t

val attach : ?config:config -> Rae_block.Device.t -> (t, string) result
(** Bind to an rfs image.  The device is wrapped read-only.  Validates the
    superblock and both bitmaps (strict).  The paper's verified-FSCK
    liveness precondition is the caller's: RAE's cold recovery runs
    [Rae_fsck.Fsck.check_device] on the image before it attaches. *)

include Rae_vfs.Fs_intf.S with type t := t

val exec : t -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome
(** Autonomous mode (paper §3.2): the shadow makes its own policy
    decisions (inode numbers, descriptor numbers, block placement). *)

type constrained_result =
  | Matches  (** re-execution reproduced the recorded outcome exactly *)
  | Divergence of Rae_vfs.Op.outcome
      (** what the shadow computed instead — a §4.3 discrepancy *)
  | Skipped_error
      (** the base had returned an error; the shadow omits the op (§3.2) *)
  | Skipped_sync  (** sync-family op: nothing for a never-writing shadow to do *)

type window_result = {
  w_ops : int;  (** entries processed (including skips) *)
  w_matches : int;
  w_divergences : int;
  w_skipped : int;  (** error-outcome and sync entries *)
}

val exec_constrained_window :
  ?on_op:(Rae_vfs.Op.recorded -> constrained_result -> unit) ->
  t ->
  Rae_vfs.Op.recorded list ->
  window_result
(** Constrained mode (paper §3.2), its one executor: the warm fold and
    both recovery replays run here.  Re-execute a window of recorded
    operations and validate each of the base's outcomes — including its
    inode and descriptor allocations — rather than trusting the shadow's
    own answer blindly.  On [Divergence] the shadow's state reflects the
    shadow's outcome (the trusted answer); the caller decides whether to
    continue.  The per-mutation superblock/bitmap write-back and summary
    re-check are deferred to the window's end, so a summary violation
    surfaces there, not at the op; windows of one reach the same
    view-level state.  A {!Violation} raised mid-window still leaves the
    overlay write-back consistent before propagating.  Windows do not
    nest.  [on_op] is called after each entry with its verdict; the
    deferred write-back runs after the last call. *)

val dirty_blocks : t -> (int * bytes) list
(** The overlay: every block the shadow would have written, sorted by
    block number.  This is the recovery hand-off, and it hands over the
    overlay's own buffers, not copies: the receiver (the base's download)
    makes them its cache and transaction images and writes through them.
    The shadow is spent by the call and must run no further operation. *)

val fd_table : t -> (Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list
(** Sorted snapshot of the descriptor table.  Comparators should prefer
    {!fd_count}/{!fd_iter}/{!fd_lookup}, which probe the live table
    without materializing a list. *)

val fd_count : t -> int

val fd_iter :
  t -> (Rae_vfs.Types.fd -> Rae_vfs.Types.ino -> Rae_vfs.Types.open_flags -> unit) -> unit

val fd_lookup :
  t -> Rae_vfs.Types.fd -> (Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) option

val install_fd :
  t -> fd:Rae_vfs.Types.fd -> ino:Rae_vfs.Types.ino -> Rae_vfs.Types.open_flags -> (unit, string) result
(** Pre-seed the descriptor table during recovery: descriptors that were
    already open at the trusted on-disk state S0 (recorded by RAE at the
    last commit) are reinstated before the operation window is replayed.
    Validates that the inode is allocated and of a kind that can be open. *)

val time : t -> int64

val checks_performed : t -> int
(** Number of runtime invariant checks executed so far (bench E6). *)

val device_reads : t -> int
(** Blocks fetched from the device (overlay misses). *)
