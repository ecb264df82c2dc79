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
    whether before or after [name]'s record.  It validates the block and
    then compares names in place, so it allocates only the entry it
    returns: the base's directory lookup. *)

val insert : bytes -> name:string -> ino:int -> kind_code:int -> bool
(** Insert into free space, splitting a live record's slack if needed;
    [false] when the block has no room.  The caller guarantees [name] is
    not already present. *)

val has_room : bytes -> name:string -> bool
(** Whether {!insert} of [name] would succeed; reads only. *)

val remove : bytes -> string -> bool
(** Remove by name, merging the record into its predecessor; [false] when
    absent. *)

val mem : bytes -> string -> bool
(** Whether {!remove} of [name] would succeed; reads only. *)

val set_entry_ino : bytes -> string -> int -> bool
(** [set_entry_ino block name ino] rewrites the inode field of the record
    for [name] in place; [false] when absent.  Used to retarget ".." when a
    directory moves to a new parent. *)

val count : bytes -> int
(** Live entries in the block ([0] on malformed blocks). *)

val free_bytes : bytes -> int
(** Reusable space: free records plus live records' slack. *)

val validate : bytes -> (unit, error) result
(** {!list}'s verdict without the entries: [Ok ()] exactly when {!list}
    succeeds, else the same error.  Names are checked in place, so a
    valid block is validated without allocating. *)
