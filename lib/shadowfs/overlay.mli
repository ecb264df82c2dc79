(** Copy-on-write block overlay.

    The shadow filesystem "never writes to the disk" (paper §2.3): it holds
    a {!Rae_block.Device.read_only} handle and funnels every would-be write
    into this in-memory overlay.  Reads consult the overlay first.  When
    recovery completes, {!dirty} is exactly the hand-off payload the base
    downloads into its caches, buffers and all. *)

type t

val create : Rae_block.Device.t -> t
(** Wraps the device behind a read-only view regardless of the handle
    passed in — defence in depth. *)

val read : t -> int -> bytes
(** Overlay content if present, else the device.  Returns a buffer the
    caller owns: a copy of a stored block, or the device's buffer. *)

val write : t -> int -> bytes -> unit
(** [write t blk data] stores [data] itself as [blk]'s overlay block,
    replacing any stored one, without a copy; the device is never
    touched.  The caller hands [data] over and must neither mutate nor
    retain it afterwards.
    @raise Invalid_argument on wrong-sized blocks or out-of-range block
    numbers. *)

val view : t -> int -> (bytes -> 'a) -> 'a
(** Zero-copy read access: [f] is applied to the live stored buffer (or
    to the device's buffer on an overlay miss) and must neither mutate
    nor retain it, nor return anything that shares it.  For read paths
    that immediately blit what they need out of the block, this replaces
    {!read}'s copy.  A miss buffer is handed back to the device
    ({!Rae_block.Device.recycle}) once [f] returns, and the next device
    read overwrites it: a buffer [f] kept would change under it. *)

val rmw : t -> int -> (bytes -> bool) -> unit
(** In-place read-modify-write: [f] receives the block's current content
    and returns whether it modified it.  An already-shadowed block is
    mutated in place — no copy in, no copy out — which is what makes the
    hot mutation paths (inode writes, dirent edits) cheap; a block not
    yet shadowed is read from the device and enters the overlay only when
    [f] reports a modification.  [f] must not retain the buffer: when it
    reports none, a miss buffer is handed back to the device, as after
    {!view}.
    @raise Invalid_argument on out-of-range block numbers. *)

val mem : t -> int -> bool
(** Is the block shadowed by the overlay? *)

val dirty : t -> (int * bytes) list
(** All overlaid blocks, sorted by block number.  The buffers are the
    overlay's own, not copies: the caller takes them over, and the
    overlay must not be read or written afterwards. *)

val dirty_count : t -> int

val reads_from_device : t -> int
(** Device reads that missed the overlay — the shadow's IO footprint. *)
