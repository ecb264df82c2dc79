(** On-disk inodes: 256 bytes, checksummed, with 12 direct block pointers,
    one single-indirect and one double-indirect pointer — the classic
    ext2/ext4 shape the paper's crafted-image bugs attack (out-of-range
    pointers, bad link counts, impossible sizes).

    The checksum is seeded with the inode number, so an inode blitted to the
    wrong table slot fails verification (ext4's metadata_csum does the
    same). *)

type t = {
  kind : Rae_vfs.Types.kind;
  mode : int;
  nlink : int;
  size : int;
  mtime : int64;
  ctime : int64;
  direct : int array;  (** length {!Layout.direct_pointers}; 0 = hole *)
  indirect : int;  (** 0 = absent *)
  double_indirect : int;
  generation : int;
}

type error =
  | Bad_kind of int
  | Bad_checksum of { ino : int }
  | Bad_field of string

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val zero : t
(** An all-zero (free) inode slot decodes to [zero] fields; use
    {!is_free_slot} to detect it. *)

val empty : Rae_vfs.Types.kind -> mode:int -> time:int64 -> t
(** A fresh inode of the given kind: size 0, nlink 1 (2 for directories set
    by the caller once ".." exists), no blocks. *)

val is_free_slot : bytes -> pos:int -> bool
(** True when the 256-byte slot is all zeroes (never-used inode). *)

val checksum : bytes -> pos:int -> ino:int -> int32
(** The slot's checksum as {!encode} stores it: the CRC32C of the slot's
    first 252 bytes, seeded with
    [Checksum.crc32c_string (string_of_int ino)]. *)

val encode : t -> ino:int -> bytes -> pos:int -> unit
(** Serialise into a 256-byte slot at [pos]. *)

val decode : bytes -> pos:int -> ino:int -> (t, error) result
(** Parse with checksum and field validation (kind code, non-negative
    size/nlink, pointer fields present only where the kind allows). *)

val verify : bytes -> pos:int -> ino:int -> (unit, error) result
(** Exactly {!decode}'s checks and verdicts, without building the record:
    [verify b ~pos ~ino = Result.map ignore (decode b ~pos ~ino)]. *)

val decode_nocheck : bytes -> pos:int -> t
(** Parse without verifying the checksum — the base filesystem's fast path
    (the deliberate base/shadow asymmetry from paper §3.3). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val blocks_for_size : int -> int
(** Number of data blocks a file of the given byte size occupies (holes not
    accounted; used for summary checks). *)
