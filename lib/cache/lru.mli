(** A classic LRU cache with pinning.

    Functorized over its index table ({!Rae_util.Tbl.S}); used for the
    base filesystem's inode cache, its block cache and the dentry cache.
    Entries can be *pinned* (dirty blocks awaiting writeback): pinned
    entries are never chosen as eviction victims, which is how writeback
    interacts safely with eviction. *)

type stats = { hits : int; misses : int; evictions : int; inserts : int }

module Make (T : Rae_util.Tbl.S) : sig
  type 'v t

  val create : ?on_evict:(T.key -> 'v -> unit) -> capacity:int -> unit -> 'v t
  (** @raise Invalid_argument when [capacity <= 0]. *)

  val capacity : 'v t -> int
  val length : 'v t -> int

  val find : 'v t -> T.key -> 'v option
  (** Hit promotes the entry to most-recently-used. *)

  val peek : 'v t -> T.key -> 'v option
  (** Hit without promotion and without touching hit/miss statistics. *)

  val mem : 'v t -> T.key -> bool

  val put : 'v t -> T.key -> 'v -> unit
  (** Insert or replace; may evict the least-recently-used unpinned entry
      (the [on_evict] hook fires for it).  When every entry is pinned the
      cache grows beyond capacity rather than evicting pinned data. *)

  val remove : 'v t -> T.key -> unit
  val pin : 'v t -> T.key -> unit
  val unpin : 'v t -> T.key -> unit
  val pinned : 'v t -> T.key -> bool
  val clear : 'v t -> unit
  (** Drop everything, pinned included, without firing [on_evict] — the
      contained-reboot "do not trust, do not write back" path. *)

  val iter : 'v t -> (T.key -> 'v -> unit) -> unit
  val fold : 'v t -> init:'a -> f:('a -> T.key -> 'v -> 'a) -> 'a
  val stats : 'v t -> stats
end

val register_stats : Rae_obs.Metrics.t -> prefix:string -> (unit -> stats) -> unit
(** Register a [stats] sampler as [<prefix>_{hits,misses,evictions,inserts}_total]
    counters.  Shared by every cache exposing this record (LRU, 2Q, dentry). *)
