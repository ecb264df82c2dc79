(** A classic LRU cache with pinning.

    Functorized over the key type; used for the base filesystem's inode
    cache and (behind {!Policy}) its block cache.  Entries can be *pinned*
    (dirty blocks awaiting writeback): pinned entries are never chosen as
    eviction victims, which is how writeback interacts safely with
    eviction. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

type stats = { hits : int; misses : int; evictions : int; inserts : int }

module Make (K : KEY) : sig
  type 'v t

  val create : ?on_evict:(K.t -> 'v -> unit) -> capacity:int -> unit -> 'v t
  (** @raise Invalid_argument when [capacity <= 0]. *)

  val capacity : 'v t -> int
  val length : 'v t -> int

  val find : 'v t -> K.t -> 'v option
  (** Hit promotes the entry to most-recently-used. *)

  val peek : 'v t -> K.t -> 'v option
  (** Hit without promotion and without touching hit/miss statistics. *)

  val mem : 'v t -> K.t -> bool

  val put : 'v t -> K.t -> 'v -> unit
  (** Insert or replace; may evict the least-recently-used unpinned entry
      (the [on_evict] hook fires for it).  When every entry is pinned the
      cache grows beyond capacity rather than evicting pinned data. *)

  val remove : 'v t -> K.t -> unit
  val pin : 'v t -> K.t -> unit
  val unpin : 'v t -> K.t -> unit
  val pinned : 'v t -> K.t -> bool
  val clear : 'v t -> unit
  (** Drop everything, pinned included, without firing [on_evict] — the
      contained-reboot "do not trust, do not write back" path. *)

  val iter : 'v t -> (K.t -> 'v -> unit) -> unit
  val fold : 'v t -> init:'a -> f:('a -> K.t -> 'v -> 'a) -> 'a
  val stats : 'v t -> stats
end

val register_stats : Rae_obs.Metrics.t -> prefix:string -> (unit -> stats) -> unit
(** Register a [stats] sampler as [<prefix>_{hits,misses,evictions,inserts}_total]
    counters.  Shared by every cache exposing this record (LRU, 2Q, dentry). *)
