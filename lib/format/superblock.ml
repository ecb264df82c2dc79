open Rae_util

type state = Clean | Dirty

let state_to_string = function Clean -> "clean" | Dirty -> "dirty"
let state_code = function Clean -> 1 | Dirty -> 2
let state_of_code = function 1 -> Some Clean | 2 -> Some Dirty | _ -> None

type t = {
  geometry : Layout.geometry;
  free_blocks : int;
  free_inodes : int;
  mount_count : int;
  state : state;
  fs_time : int64;
  generation : int64;
}

type error =
  | Bad_magic of int64
  | Bad_version of int
  | Bad_checksum
  | Bad_block_size of int
  | Bad_geometry of string
  | Bad_state of int
  | Bad_counts of string

let error_to_string = function
  | Bad_magic m -> Printf.sprintf "bad magic 0x%Lx" m
  | Bad_version v -> Printf.sprintf "unsupported version %d" v
  | Bad_checksum -> "superblock checksum mismatch"
  | Bad_block_size b -> Printf.sprintf "bad block size %d" b
  | Bad_geometry msg -> "inconsistent geometry: " ^ msg
  | Bad_state s -> Printf.sprintf "invalid state code %d" s
  | Bad_counts msg -> "free counts out of range: " ^ msg

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* Field offsets within block 0. *)
let off_magic = 0
let off_version = 8
let off_block_size = 12
let off_nblocks = 16
let off_ninodes = 24
let off_journal_start = 28
let off_journal_len = 32
let off_ibmap_start = 36
let off_ibmap_len = 40
let off_bbmap_start = 44
let off_bbmap_len = 48
let off_itable_start = 52
let off_itable_len = 56
let off_data_start = 60
let off_free_blocks = 64
let off_free_inodes = 68
let off_mount_count = 72
let off_state = 76
let off_fs_time = 80
let off_generation = 88
let off_checksum = 4092

let encode_into sb b =
  if Bytes.length b <> Layout.block_size then invalid_arg "Superblock.encode_into: not a block";
  Bytes.fill b 0 Layout.block_size '\000';
  let g = sb.geometry in
  Codec.set_u64 b off_magic Layout.magic;
  Codec.set_u32_int b off_version Layout.version;
  Codec.set_u32_int b off_block_size Layout.block_size;
  Codec.set_u64 b off_nblocks (Int64.of_int g.Layout.nblocks);
  Codec.set_u32_int b off_ninodes g.Layout.ninodes;
  Codec.set_u32_int b off_journal_start g.Layout.journal_start;
  Codec.set_u32_int b off_journal_len g.Layout.journal_len;
  Codec.set_u32_int b off_ibmap_start g.Layout.inode_bitmap_start;
  Codec.set_u32_int b off_ibmap_len g.Layout.inode_bitmap_len;
  Codec.set_u32_int b off_bbmap_start g.Layout.block_bitmap_start;
  Codec.set_u32_int b off_bbmap_len g.Layout.block_bitmap_len;
  Codec.set_u32_int b off_itable_start g.Layout.inode_table_start;
  Codec.set_u32_int b off_itable_len g.Layout.inode_table_len;
  Codec.set_u32_int b off_data_start g.Layout.data_start;
  Codec.set_u32_int b off_free_blocks sb.free_blocks;
  Codec.set_u32_int b off_free_inodes sb.free_inodes;
  Codec.set_u32_int b off_mount_count sb.mount_count;
  Codec.set_u32_int b off_state (state_code sb.state);
  Codec.set_u64 b off_fs_time sb.fs_time;
  Codec.set_u64 b off_generation sb.generation;
  Codec.set_i32 b off_checksum (Checksum.crc32c b ~pos:0 ~len:off_checksum)

let encode sb =
  let b = Bytes.create Layout.block_size in
  encode_into sb b;
  b

let parse b =
  if Bytes.length b <> Layout.block_size then Error (Bad_block_size (Bytes.length b))
  else
    let m = Codec.get_u64 b off_magic in
    if not (Int64.equal m Layout.magic) then Error (Bad_magic m)
    else
      let version = Codec.get_u32_int b off_version in
      if version <> Layout.version then Error (Bad_version version)
      else if
        not
          (Checksum.verify b ~pos:0 ~len:off_checksum ~expect:(Codec.get_i32 b off_checksum))
      then Error Bad_checksum
      else
        let bs = Codec.get_u32_int b off_block_size in
        if bs <> Layout.block_size then Error (Bad_block_size bs)
        else
          let state_raw = Codec.get_u32_int b off_state in
          match state_of_code state_raw with
          | None -> Error (Bad_state state_raw)
          | Some state ->
              let geometry =
                {
                  Layout.nblocks = Int64.to_int (Codec.get_u64 b off_nblocks);
                  ninodes = Codec.get_u32_int b off_ninodes;
                  journal_start = Codec.get_u32_int b off_journal_start;
                  journal_len = Codec.get_u32_int b off_journal_len;
                  inode_bitmap_start = Codec.get_u32_int b off_ibmap_start;
                  inode_bitmap_len = Codec.get_u32_int b off_ibmap_len;
                  block_bitmap_start = Codec.get_u32_int b off_bbmap_start;
                  block_bitmap_len = Codec.get_u32_int b off_bbmap_len;
                  inode_table_start = Codec.get_u32_int b off_itable_start;
                  inode_table_len = Codec.get_u32_int b off_itable_len;
                  data_start = Codec.get_u32_int b off_data_start;
                }
              in
              Ok
                {
                  geometry;
                  free_blocks = Codec.get_u32_int b off_free_blocks;
                  free_inodes = Codec.get_u32_int b off_free_inodes;
                  mount_count = Codec.get_u32_int b off_mount_count;
                  state;
                  fs_time = Codec.get_u64 b off_fs_time;
                  generation = Codec.get_u64 b off_generation;
                }

let validate_geometry sb =
  let g = sb.geometry in
  let expected =
    Layout.compute ~nblocks:g.Layout.nblocks ~ninodes:g.Layout.ninodes
      ~journal_len:g.Layout.journal_len ()
  in
  match expected with
  | Error msg -> Error (Bad_geometry msg)
  | Ok e ->
      if e <> g then Error (Bad_geometry "region layout does not match computed layout")
      else if sb.free_blocks < 0 || sb.free_blocks > Layout.data_block_count g then
        Error (Bad_counts (Printf.sprintf "free_blocks=%d" sb.free_blocks))
      else if sb.free_inodes < 0 || sb.free_inodes > g.Layout.ninodes then
        Error (Bad_counts (Printf.sprintf "free_inodes=%d" sb.free_inodes))
      else Ok sb

let decode b = Result.bind (parse b) validate_geometry
let decode_unchecked b = parse b

let make geometry ~free_blocks ~free_inodes =
  { geometry; free_blocks; free_inodes; mount_count = 0; state = Clean; fs_time = 0L; generation = 0L }

let with_state sb state = { sb with state }

let pp ppf sb =
  Format.fprintf ppf "superblock { %a; free_blocks=%d; free_inodes=%d; mounts=%d; %s; time=%Ld; gen=%Ld }"
    Layout.pp_geometry sb.geometry sb.free_blocks sb.free_inodes sb.mount_count
    (state_to_string sb.state) sb.fs_time sb.generation
