(** A JBD2-style physical metadata journal.

    The journal occupies the region [journal_start, journal_start +
    journal_len) of the device.  Block 0 of the region is the journal
    superblock holding the replay tail; transactions are appended after it
    as [descriptor, data*, commit] groups and checkpointed synchronously
    (home-location writes behind a flush barrier), after which the tail
    advances.

    Like JBD2, data blocks whose first word collides with the journal magic
    are *escaped* in the journal copy (flag bit in the descriptor tag), and
    *revoke* records suppress replay of earlier writes to blocks that were
    subsequently freed.

    Recovery (journal {!replay}) is the base filesystem's half of the
    paper's contained reboot: it brings the on-disk state to the last
    committed transaction boundary — the trusted state S0 from which the
    shadow reconstructs (paper §2.2, §3.2). *)

type t

type stats = {
  commits : int;
  blocks_logged : int;
  escapes : int;
  revokes : int;
  tail_resets : int;
}

exception Journal_full of { needed : int; capacity : int }
(** A single transaction larger than the journal region is a configuration
    error, reported eagerly at commit. *)

val format : Rae_block.Device.t -> Rae_format.Layout.geometry -> unit
(** Write a fresh (empty) journal superblock; part of mkfs. *)

val attach : Rae_block.Device.t -> Rae_format.Layout.geometry -> (t, string) result
(** Open the journal of a formatted device.  Fails when the journal
    superblock is unreadable (run {!replay} — which tolerates any tail state
    — or re-{!format} first). *)

type txn

val begin_txn : t -> txn
val txn_write : txn -> int -> bytes -> unit
(** Buffer a full-block metadata write to home block [blk].  A later write
    to the same block within the transaction supersedes the earlier one,
    and the write cancels a revoke of [blk] earlier in the transaction
    (jbd2's [cancel_revoke]), so a block freed and reused in one
    transaction replays its new image.

    The transaction takes ownership of the buffer: it is not copied, and
    what commits is its content at {!commit} time.  The caller may keep
    writing through it until then (the base's dirty block cache does),
    and must not write through it afterwards. *)

val txn_forget : txn -> int -> unit
(** Drop the buffered write to [blk], if any, keeping the others in
    first-write order — jbd2's [journal_forget].  The base calls it when
    it frees a block the running transaction holds, so a stale image
    cannot land over the block's next use.  Revokes are unaffected. *)

val txn_revoke : txn -> int -> unit
(** Record that [blk] was freed: earlier journalled images of it must not
    be replayed. *)

val txn_block_count : txn -> int

val txn_writes : txn -> (int * bytes) list
(** Copies of the buffered (home-block, image) pairs, oldest first. *)

val txn_iter : txn -> (int -> bytes -> unit) -> unit
(** Visit the buffered (home-block, image) pairs, oldest first, without
    copying — the base validates dirty metadata this way at the commit
    barrier, before it becomes durable ("validate upon sync", paper
    §3.1).  The images are the transaction's own buffers: read only. *)

val commit : t -> txn -> unit
(** Make the transaction durable and checkpoint it.  On return the home
    locations contain the transaction and the tail has advanced.
    @raise Journal_full per above. *)

val abort : t -> txn -> unit
(** Discard a built-but-uncommitted transaction (contained reboot path). *)

val commit_seq : t -> int64
(** The durable transaction sequence: the seq the {e next} commit will be
    assigned, advanced once per successful {!commit}.  Monotonic over the
    life of the image (it is persisted in the journal superblock), so two
    equal readings bracket a commit-free interval — the property the
    warm-checkpoint cut relies on. *)

val replay : Rae_block.Device.t -> Rae_format.Layout.geometry -> (int, string) result
(** Crash recovery: scan from the tail, apply every complete committed
    transaction (respecting revokes), flush, and advance the tail.  Returns
    the number of transactions replayed.  Safe to run on a clean journal
    (returns [Ok 0]).  Idempotent. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val register_obs : Rae_obs.Metrics.t -> ?prefix:string -> (unit -> t) -> unit
(** Register the journal's counters with a metrics registry; the instance is
    re-read through the getter at each sample.  [prefix] defaults to
    ["journal"]. *)
