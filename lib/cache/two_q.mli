(** The 2Q cache replacement policy (Johnson & Shasha, VLDB '94), the
    policy the paper names when listing the "sophisticated caching
    structures and policies (e.g., LRU 2Q)" a shadow filesystem omits.

    Structure: newly-admitted pages enter a FIFO probation queue [A1in];
    on eviction from [A1in] their *keys* are remembered in a ghost queue
    [A1out]; a page re-referenced while ghosted is promoted into the main
    LRU queue [Am].  Scans therefore wash through [A1in] without polluting
    [Am] — the property the cache-policy ablation bench demonstrates. *)

module Make (T : Rae_util.Tbl.S) : sig
  type 'v t

  val create :
    ?on_evict:(T.key -> 'v -> unit) ->
    ?kin_ratio:float ->
    ?kout_ratio:float ->
    capacity:int ->
    unit ->
    'v t
  (** [kin_ratio] sizes [A1in] (default 0.25 of capacity), [kout_ratio]
      sizes the ghost queue (default 0.5).  Pinned entries are exempt from
      eviction, as in {!Lru}. *)

  val find : 'v t -> T.key -> 'v option
  val peek : 'v t -> T.key -> 'v option
  val mem : 'v t -> T.key -> bool
  val put : 'v t -> T.key -> 'v -> unit
  val remove : 'v t -> T.key -> unit
  val pin : 'v t -> T.key -> unit
  val unpin : 'v t -> T.key -> unit
  val pinned : 'v t -> T.key -> bool
  val clear : 'v t -> unit
  val length : 'v t -> int
  val iter : 'v t -> (T.key -> 'v -> unit) -> unit
  val fold : 'v t -> init:'a -> f:('a -> T.key -> 'v -> 'a) -> 'a
  val stats : 'v t -> Lru.stats

  val ghost_length : 'v t -> int
  (** Occupancy of [A1out], exposed for tests. *)
end
