(** The superblock: block 0 of every rfs image.

    Carries the geometry, allocation summaries, the mount state and a
    CRC32C over the whole structure.  [decode] performs full validation —
    it is the first line of defence against the crafted-image bug class the
    paper's study highlights (images that bypass fsck and crash the
    kernel). *)

type state = Clean | Dirty

val state_to_string : state -> string

type t = {
  geometry : Layout.geometry;
  free_blocks : int;
  free_inodes : int;
  mount_count : int;
  state : state;
  fs_time : int64;  (** persisted logical clock (operation counter) *)
  generation : int64;  (** bumped on every superblock write *)
}

type error =
  | Bad_magic of int64
  | Bad_version of int
  | Bad_checksum
  | Bad_block_size of int
  | Bad_geometry of string
  | Bad_state of int
  | Bad_counts of string

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val encode : t -> bytes
(** Serialise to one block, computing the checksum. *)

val encode_into : t -> bytes -> unit
(** {!encode} into a block-sized buffer the caller owns, overwriting all
    of it.  @raise Invalid_argument on a buffer of another size. *)

val decode : bytes -> (t, error) result
(** Parse and fully validate: magic, version, checksum, block size, region
    layout consistency (regions in order, non-overlapping, within the
    device), free counts within range. *)

val decode_unchecked : bytes -> (t, error) result
(** Parse with only magic/version/checksum verification — used by tests and
    by {!Rae_fsck} to report *which* geometry field is inconsistent rather
    than failing wholesale. *)

val make : Layout.geometry -> free_blocks:int -> free_inodes:int -> t
(** A fresh clean superblock at logical time 0. *)

val with_state : t -> state -> t
val pp : Format.formatter -> t -> unit
