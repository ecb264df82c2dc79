(** The filesystem checker.

    A full read-only consistency check of an rfs image.  The paper argues a
    verified shadow needs "a verified version of the filesystem checker"
    because its liveness guarantee only holds on valid input images (§4.3):
    accordingly the shadow runs {!check} on the trusted on-disk state before
    reconstructing, and refuses to recover from an image that fails.

    The checker validates, in order:
    + superblock (magic, version, checksum, geometry, counts);
    + both allocation bitmaps (strict parse, metadata blocks allocated);
    + every allocated inode (checksum, kind, size, link count fields);
    + the directory tree from the root: directory block structure, "." and
      ".." entries, entry kinds matching inode kinds, no entry pointing to a
      free inode, every tree edge counted;
    + block pointers: in-range, no block referenced twice, referenced set
      equal to the block bitmap;
    + inode reachability and link counts: every allocated inode reachable,
      [nlink] equal to the observed reference count (directories:
      2 + subdirectories);
    + superblock free counts equal to the bitmap populations. *)

type severity = Error | Warning

type code =
  | Sb_invalid
  | Ibmap_invalid
  | Bbmap_invalid
  | Inode_invalid
  | Root_invalid
  | Dirent_invalid
  | Dot_mismatch
  | Bad_pointer
  | Double_ref
  | Bitmap_leak  (** block marked allocated but referenced by nothing *)
  | Bitmap_missing  (** block referenced but marked free *)
  | Nlink_mismatch
  | Unreachable_inode
  | Orphan_inode  (** allocated inode with nlink = 0 (crash leftover; warning) *)
  | Size_invalid
  | Count_mismatch
  | Io_failure

type finding = { severity : severity; code : code; detail : string }

type report = {
  findings : finding list;
  inodes_checked : int;
  dirs_walked : int;
  blocks_referenced : int;
}

val clean : report -> bool
(** No [Error]-severity findings ([Warning]s allowed). *)

val errors : report -> finding list
val code_to_string : code -> string
val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit

val check : (int -> bytes) -> report
(** Run the full check over a block-read function (device or overlay). *)

val check_device : Rae_block.Device.t -> report
(** {!check} over a read-only view of the device; read errors surface as
    [Io_failure] findings rather than exceptions. *)
