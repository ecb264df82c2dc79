(** Checked, read-only access to an rfs image.

    Parameterised over a block-read function, so the shadow can layer its
    copy-on-write overlay underneath and fsck can read the raw device; both
    get the same *validating* decode paths (checksums verified, pointers
    bounds-checked, directory blocks structurally validated).  The base
    filesystem deliberately does not use this module — it has its own
    trusting fast paths, mirroring the paper's base/shadow asymmetry. *)

type viewer = { view : 'a. int -> (bytes -> 'a) -> 'a }
(** [view blk f] applies [f] to [blk]'s content.  [f] must neither
    mutate nor keep the buffer, nor return anything that shares it: the
    source may lend out a buffer it keeps, or take its buffer back once
    [f] returns. *)

type t = { read : int -> bytes; viewer : viewer; sb : Superblock.t }
(** [read] returns a buffer the caller owns; the decodes that only copy
    fields out of a block (superblock, bitmaps, inodes, pointer-block
    entries) go through [viewer] instead. *)

type error = { context : string; problem : string }

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val attach : ?viewer:viewer -> (int -> bytes) -> (t, error) result
(** Read and validate the superblock.  Without [viewer], a view reads
    through [read] and drops the buffer. *)

val geometry : t -> Layout.geometry

val load_inode_bitmap : t -> (Bitmap.t, error) result
(** Strict parse ({!Bitmap.of_blocks}); bit 0 (invalid inode) must be set. *)

val load_block_bitmap : t -> (Bitmap.t, error) result
(** Strict parse; all metadata blocks (0 .. data_start-1) must be marked
    allocated. *)

val read_inode : t -> int -> (Inode.t, error) result
(** Checksum-verified inode read.  Reports an error for a free (all-zero)
    slot — use {!read_inode_opt} when free is expected. *)

val read_inode_opt : t -> int -> (Inode.t option, error) result
(** [Ok None] for a free slot. *)

val file_block : t -> Inode.t -> int -> (int, error) result
(** Physical block number backing logical block [idx] of the file ([0] for
    a hole).  Walks the direct / single-indirect / double-indirect chain
    with bounds checks at every hop. *)

val read_file_block : t -> Inode.t -> int -> (bytes, error) result
(** The content of logical block [idx]; holes read as zeroes. *)

val read_file : t -> Inode.t -> (string, error) result
(** The first [size] bytes of the file. *)

val iter_file_blocks :
  t -> Inode.t -> f:(idx:int -> phys:int -> (unit, error) result) -> (unit, error) result
(** Apply [f] to every *allocated* block of the file, including the
    indirect blocks themselves (reported with [idx = -1]).  Stops at the
    first error. *)

val valid_data_block : Layout.geometry -> int -> bool
(** Is [blk] a legal data block number? *)
