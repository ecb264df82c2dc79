open Rae_util

type t = {
  kind : Rae_vfs.Types.kind;
  mode : int;
  nlink : int;
  size : int;
  mtime : int64;
  ctime : int64;
  direct : int array;
  indirect : int;
  double_indirect : int;
  generation : int;
}

type error =
  | Bad_kind of int
  | Bad_checksum of { ino : int }
  | Bad_field of string

let error_to_string = function
  | Bad_kind k -> Printf.sprintf "invalid kind code %d" k
  | Bad_checksum { ino } -> Printf.sprintf "inode %d checksum mismatch" ino
  | Bad_field msg -> "invalid inode field: " ^ msg

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let zero =
  {
    kind = Rae_vfs.Types.Regular;
    mode = 0;
    nlink = 0;
    size = 0;
    mtime = 0L;
    ctime = 0L;
    direct = Array.make Layout.direct_pointers 0;
    indirect = 0;
    double_indirect = 0;
    generation = 0;
  }

let empty kind ~mode ~time =
  {
    zero with
    kind;
    mode = mode land 0o777;
    nlink = 1;
    mtime = time;
    ctime = time;
    direct = Array.make Layout.direct_pointers 0;
  }

(* Offsets within the 256-byte slot. *)
let off_kind = 0
let off_mode = 2
let off_nlink = 4
let off_size = 8
let off_mtime = 16
let off_ctime = 24
let off_direct = 32 (* 12 * 4 = 48 bytes *)
let off_indirect = 80
let off_double = 84
let off_generation = 88
let off_checksum = 252

(* Eight bytes per step; [Bytes.get_int64_le] keeps the bounds check. *)
let is_free_slot b ~pos =
  let rec go i =
    i >= Layout.inode_size || (Int64.equal (Bytes.get_int64_le b (pos + i)) 0L && go (i + 8))
  in
  go 0

(* Seeded with the inode number, so a slot blitted to the wrong table
   position fails verification. *)
let checksum b ~pos ~ino =
  Checksum.crc32c ~init:(Checksum.crc32c_string (string_of_int ino)) b ~pos ~len:off_checksum

let encode inode ~ino b ~pos =
  Bytes.fill b pos Layout.inode_size '\000';
  Codec.set_u16 b (pos + off_kind) (Rae_vfs.Types.kind_code inode.kind);
  Codec.set_u16 b (pos + off_mode) (inode.mode land 0o777);
  Codec.set_u16 b (pos + off_nlink) inode.nlink;
  Codec.set_u64 b (pos + off_size) (Int64.of_int inode.size);
  Codec.set_u64 b (pos + off_mtime) inode.mtime;
  Codec.set_u64 b (pos + off_ctime) inode.ctime;
  Array.iteri (fun i blk -> Codec.set_u32_int b (pos + off_direct + (4 * i)) blk) inode.direct;
  Codec.set_u32_int b (pos + off_indirect) inode.indirect;
  Codec.set_u32_int b (pos + off_double) inode.double_indirect;
  Codec.set_u32_int b (pos + off_generation) inode.generation;
  Codec.set_i32 b (pos + off_checksum) (checksum b ~pos ~ino)

let parse b ~pos =
  {
    kind =
      (match Rae_vfs.Types.kind_of_code (Codec.get_u16 b (pos + off_kind)) with
      | Some k -> k
      | None -> Rae_vfs.Types.Regular (* caller validates separately *));
    mode = Codec.get_u16 b (pos + off_mode);
    nlink = Codec.get_u16 b (pos + off_nlink);
    size = Int64.to_int (Codec.get_u64 b (pos + off_size));
    mtime = Codec.get_u64 b (pos + off_mtime);
    ctime = Codec.get_u64 b (pos + off_ctime);
    direct = Array.init Layout.direct_pointers (fun i -> Codec.get_u32_int b (pos + off_direct + (4 * i)));
    indirect = Codec.get_u32_int b (pos + off_indirect);
    double_indirect = Codec.get_u32_int b (pos + off_double);
    generation = Codec.get_u32_int b (pos + off_generation);
  }

let decode_nocheck b ~pos = parse b ~pos

(* [decode]'s checks, read straight from the slot.  nlink = 0 is legal on
   an allocated inode: an orphan kept alive by open descriptors (fsck
   reports it as a warning when at rest). *)
let verify b ~pos ~ino =
  let kind_raw = Codec.get_u16 b (pos + off_kind) in
  if Rae_vfs.Types.kind_of_code kind_raw = None then Error (Bad_kind kind_raw)
  else if not (Int32.equal (checksum b ~pos ~ino) (Codec.get_i32 b (pos + off_checksum))) then
    Error (Bad_checksum { ino })
  else
    let size = Int64.to_int (Codec.get_u64 b (pos + off_size)) in
    if size < 0 then Error (Bad_field "negative size")
    else if size > Layout.max_file_size then Error (Bad_field "size exceeds maximum")
    else if Codec.get_u16 b (pos + off_mode) land lnot 0o777 <> 0 then
      Error (Bad_field "mode has non-permission bits")
    else Ok ()

let decode b ~pos ~ino =
  match verify b ~pos ~ino with Ok () -> Ok (parse b ~pos) | Error e -> Error e

let equal a b =
  a.kind = b.kind && a.mode = b.mode && a.nlink = b.nlink && a.size = b.size
  && Int64.equal a.mtime b.mtime && Int64.equal a.ctime b.ctime
  && a.direct = b.direct && a.indirect = b.indirect && a.double_indirect = b.double_indirect
  && a.generation = b.generation

let pp ppf i =
  Format.fprintf ppf
    "inode { %a mode=%03o nlink=%d size=%d direct=[%s] ind=%d dind=%d gen=%d }"
    Rae_vfs.Types.pp_kind i.kind i.mode i.nlink i.size
    (String.concat "," (List.map string_of_int (Array.to_list i.direct)))
    i.indirect i.double_indirect i.generation

let blocks_for_size size = (size + Layout.block_size - 1) / Layout.block_size
