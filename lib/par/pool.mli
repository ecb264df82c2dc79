(** Per-call fan-out over OCaml 5 domains.

    [map_array ~domains f xs] spawns [domains - 1] domains for the call;
    the caller is the last participant.  Every participant claims the
    next index with one [Atomic.fetch_and_add] until the array is
    exhausted, so a slow item never holds up a queue behind it.  No
    domain outlives the call.

    The first exception any item raises is kept; no item starts after
    it, and it is re-raised once every spawned domain has joined.

    [domains <= 1] is plain [Array.map]: sequential, ascending order. *)

val map_array : domains:int -> ('a -> 'b) -> 'a array -> 'b array
