(** Allocation bitmaps (inode and block), ext-style: one bit per object,
    packed little-endian within bytes, spanning one or more disk blocks.

    The in-memory form is loaded from the bitmap region at mount and written
    back through the journal on allocation changes.  The shadow rebuilds its
    own copy from disk during recovery and *validates* the base's allocation
    decisions against it (constrained mode, paper §3.2). *)

type t

val create : nbits:int -> t
(** All bits clear. *)

val nbits : t -> int
val copy : t -> t
val test : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val set_result : t -> int -> (unit, string) result
(** Like {!set} but reports double-allocation instead of silently setting —
    the shadow's invariant-checking allocator uses this. *)

val clear_result : t -> int -> (unit, string) result

val find_free : t -> from:int -> int option
(** First clear bit at index >= [from] (wrapping is the caller's policy).
    Word-level scan: full bytes/words are skipped without touching
    individual bits. *)

val find_free_next : t -> lo:int -> int option
(** Next-fit allocation probe: scan from the bitmap's rotor (where the last
    successful [find_free_next] left off), wrapping once back to [lo].
    Returns a free bit iff one exists in [[lo], [nbits]) and advances the
    rotor past it.  The rotor is in-memory only — it never affects the
    serialised form, and a freshly created or parsed bitmap starts at 0,
    making allocation sequences deterministic from any mount. *)

val cursor : t -> int
(** The rotor's current position (for tests and introspection). *)

val reset_cursor : t -> unit

val count_set : t -> int
(** O(1): the population count is maintained across {!set}/{!clear}. *)

val count_free : t -> int
(** O(1); see {!count_set}. *)

val to_blocks : t -> block_size:int -> bytes list
(** Serialise; the tail of the last block (bits beyond [nbits]) is all-ones,
    matching ext2's convention that out-of-range bits read as allocated. *)

val encode_block : t -> block_size:int -> int -> bytes
(** [encode_block t ~block_size i] is block [i] of {!to_blocks}, encoded
    alone into a fresh buffer — the base re-serializes only the bitmap
    blocks a transaction touched.
    @raise Invalid_argument when [i] is not a block of {!to_blocks}. *)

val encode_block_into : t -> int -> bytes -> unit
(** [encode_block_into t i out] is {!encode_block} with [block_size] the
    length of [out], written over all of [out] instead of a fresh buffer.
    @raise Invalid_argument as {!encode_block}. *)

val of_blocks : bytes list -> nbits:int -> (t, string) result
(** Parse; fails if the blocks cannot hold [nbits] or padding bits are not
    all-ones (a corruption signal fsck reports). *)

val of_view :
  (int -> (bytes -> unit) -> unit) -> start:int -> count:int -> nbits:int -> (t, string) result
(** {!of_blocks} over blocks [start] to [start + count - 1], each read
    through [view blk f], which applies [f] to block [blk].  [f] copies
    out what it needs, so [view] may lend a buffer out only for the call
    and take it back afterwards. *)

val of_blocks_lenient : bytes list -> nbits:int -> (t, string) result
(** Like {!of_blocks} but ignores padding bits — the base filesystem's mount
    path, which (deliberately, per the paper's contrast) checks less. *)

val equal : t -> t -> bool
val iter_set : t -> (int -> unit) -> unit
val pp : Format.formatter -> t -> unit
