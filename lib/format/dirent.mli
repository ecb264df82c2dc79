(** Directory entry blocks, ext2-style.

    A directory's data blocks each hold a chain of variable-length records:
    {v
      +--------+---------+----------+------+----------------+
      | ino u32| rec_len | name_len | kind | name (padded)  |
      +--------+---------+----------+------+----------------+
    v}
    [rec_len] links to the next record; the final record's [rec_len] reaches
    exactly the end of the block.  [ino = 0] marks reclaimable space.
    Deletion merges a record into its predecessor by extending the
    predecessor's [rec_len], exactly as ext2 does.

    This encoding is the main playground of the crafted-image bug class:
    a [rec_len] of 0 loops the kernel, a [rec_len] overshooting the block
    reads out of bounds, a [name_len] exceeding [rec_len] walks into the
    next record.  {!fold} validates all of these; the [_nocheck] variants
    mimic the base filesystem's trusting fast path. *)

type entry = { ino : int; kind_code : int; name : string }

type error =
  | Misaligned of { offset : int }
  | Bad_rec_len of { offset : int; rec_len : int }
  | Overrun of { offset : int; rec_len : int }
  | Bad_name_len of { offset : int; name_len : int; rec_len : int }
  | Bad_name of { offset : int; name : string }
  | Bad_kind_code of { offset : int; code : int }

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val empty_block : unit -> bytes
(** A fresh directory block: one free record spanning the block. *)

val record_size : string -> int
(** Bytes a live record for [name] needs (header + padded name). *)

val fold : bytes -> init:'a -> f:('a -> entry -> 'a) -> ('a, error) result
(** Validated traversal of the live entries of one block. *)

val list : bytes -> (entry list, error) result
(** Live entries in block order. *)

val list_nocheck : bytes -> entry list
(** Best-effort traversal that stops at the first malformed record instead
    of reporting it — the base's fast path.  On a crafted block this
    silently drops entries; that asymmetry is exploited by the injected
    bug [ext4_dx_find_entry] analogue. *)

val find : bytes -> string -> (entry, error) result option
(** [find block name] is [None] when absent, [Some (Ok e)] when found,
    [Some (Error _)] when the block is malformed — anywhere in the block,
    whether before or after [name]'s record: the base's directory lookup.
    One walk checks every record exactly as {!validate} does, in the same
    order, and remembers the first live record named [name], the one
    {!list} would find first.  Names are compared in place, so it
    allocates only the entry it returns. *)

val room : bytes -> name:string -> int
(** Offset of the first record that can take a record for [name] — a
    free record big enough, or a live record whose slack after its own
    name can hold it — or [-1] when the block has no room.  Reads
    headers only. *)

val insert_at : bytes -> int -> name:string -> ino:int -> kind_code:int -> unit
(** [insert_at block off ~name ~ino ~kind_code] inserts at [off], which
    {!room} returned for [name] on this block's contents; a live record
    there gives up its slack. *)

val insert : bytes -> name:string -> ino:int -> kind_code:int -> bool
(** {!insert_at} at {!room}; [false] when the block has no room.  The
    caller guarantees [name] is not already present. *)

val locate : bytes -> string -> int * int
(** [(off, prev)]: the offset of the first live record named [name] and
    of the record before it ([-1] when it is the block's first);
    [(-1, -1)] when absent.  Reads headers only. *)

val remove_at : bytes -> off:int -> prev:int -> unit
(** Remove the record {!locate} found at [off], merging it into its
    predecessor [prev], or marking it free when [prev] is [-1]. *)

val remove : bytes -> string -> bool
(** {!remove_at} where {!locate} finds [name]; [false] when absent. *)

val set_ino_at : bytes -> int -> int -> unit
(** [set_ino_at block off ino] rewrites the inode field of the live
    record at [off] (as {!locate} returns it) in place. *)

val set_entry_ino : bytes -> string -> int -> bool
(** [set_entry_ino block name ino] is {!set_ino_at} at [name]'s record;
    [false] when absent.  Used to retarget ".." when a directory moves to
    a new parent. *)

val count : bytes -> int
(** Live entries in the block ([0] on malformed blocks). *)

val free_bytes : bytes -> int
(** Reusable space: free records plus live records' slack. *)

val validate : bytes -> (unit, error) result
(** {!list}'s verdict without the entries: [Ok ()] exactly when {!list}
    succeeds, else the same error.  Names are checked in place, so a
    valid block is validated without allocating. *)
