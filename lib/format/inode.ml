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
   position fails verification.  The seed is the CRC32C of the number's
   decimal string, computed without building the string. *)
let checksum_int b ~pos ~ino =
  Checksum.crc32c_int ~init:(Checksum.crc32c_decimal ino) b ~pos ~len:off_checksum

let checksum b ~pos ~ino = Int32.of_int (checksum_int b ~pos ~ino)

(* The field accessors are the [Bytes] primitives, which the compiler
   keeps unboxed ([Codec]'s [int64] and [int32] functions box), so encode
   and verify allocate nothing.  [slot_check] gives a slot outside the
   buffer [Codec]'s verdict. *)
let slot_check b ~pos what =
  if pos < 0 || pos > Bytes.length b - Layout.inode_size then
    raise
      (Codec.Decode_error
         (Printf.sprintf "%s: inode slot at %d outside buffer of %d bytes" what pos
            (Bytes.length b)))

let u16 b off = Bytes.get_uint16_le b off
let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let encode inode ~ino b ~pos =
  Bytes.fill b pos Layout.inode_size '\000';
  Bytes.set_uint16_le b (pos + off_kind) (Rae_vfs.Types.kind_code inode.kind);
  Bytes.set_uint16_le b (pos + off_mode) (inode.mode land 0o777);
  Bytes.set_uint16_le b (pos + off_nlink) inode.nlink;
  Bytes.set_int64_le b (pos + off_size) (Int64.of_int inode.size);
  Bytes.set_int64_le b (pos + off_mtime) inode.mtime;
  Bytes.set_int64_le b (pos + off_ctime) inode.ctime;
  for i = 0 to Array.length inode.direct - 1 do
    set_u32 b (pos + off_direct + (4 * i)) inode.direct.(i)
  done;
  set_u32 b (pos + off_indirect) inode.indirect;
  set_u32 b (pos + off_double) inode.double_indirect;
  set_u32 b (pos + off_generation) inode.generation;
  Bytes.set_int32_le b (pos + off_checksum) (Int32.of_int (checksum_int b ~pos ~ino))

let parse b ~pos =
  slot_check b ~pos "Inode.parse";
  let direct = Array.make Layout.direct_pointers 0 in
  for i = 0 to Layout.direct_pointers - 1 do
    direct.(i) <- u32 b (pos + off_direct + (4 * i))
  done;
  {
    kind =
      (match Rae_vfs.Types.kind_of_code (u16 b (pos + off_kind)) with
      | Some k -> k
      | None -> Rae_vfs.Types.Regular (* caller validates separately *));
    mode = u16 b (pos + off_mode);
    nlink = u16 b (pos + off_nlink);
    size = Int64.to_int (Bytes.get_int64_le b (pos + off_size));
    mtime = Bytes.get_int64_le b (pos + off_mtime);
    ctime = Bytes.get_int64_le b (pos + off_ctime);
    direct;
    indirect = u32 b (pos + off_indirect);
    double_indirect = u32 b (pos + off_double);
    generation = u32 b (pos + off_generation);
  }

let decode_nocheck b ~pos = parse b ~pos

(* [decode]'s checks, read straight from the slot.  nlink = 0 is legal on
   an allocated inode: an orphan kept alive by open descriptors (fsck
   reports it as a warning when at rest). *)
let verify b ~pos ~ino =
  slot_check b ~pos "Inode.verify";
  let kind_raw = u16 b (pos + off_kind) in
  match Rae_vfs.Types.kind_of_code kind_raw with
  | None -> Error (Bad_kind kind_raw)
  | Some _ ->
      if checksum_int b ~pos ~ino <> u32 b (pos + off_checksum) then Error (Bad_checksum { ino })
      else
        let size = Int64.to_int (Bytes.get_int64_le b (pos + off_size)) in
        if size < 0 then Error (Bad_field "negative size")
        else if size > Layout.max_file_size then Error (Bad_field "size exceeds maximum")
        else if u16 b (pos + off_mode) land lnot 0o777 <> 0 then
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
