open Rae_util

type viewer = { view : 'a. int -> (bytes -> 'a) -> 'a }
type t = { read : int -> bytes; viewer : viewer; sb : Superblock.t }

type error = { context : string; problem : string }

let error_to_string e = Printf.sprintf "%s: %s" e.context e.problem
let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)
let err context fmt = Format.kasprintf (fun problem -> Error { context; problem }) fmt

let attach ?viewer read =
  let viewer = match viewer with Some v -> v | None -> { view = (fun blk f -> f (read blk)) } in
  match viewer.view 0 Superblock.decode with
  | Ok sb -> Ok { read; viewer; sb }
  | Error e -> err "superblock" "%s" (Superblock.error_to_string e)
  | exception Codec.Decode_error msg -> err "superblock" "decode error: %s" msg

let geometry t = t.sb.Superblock.geometry

let load_inode_bitmap t =
  let g = geometry t in
  match
    Bitmap.of_view t.viewer.view ~start:g.Layout.inode_bitmap_start
      ~count:g.Layout.inode_bitmap_len ~nbits:(g.Layout.ninodes + 1)
  with
  | Error msg -> err "inode bitmap" "%s" msg
  | Ok bm ->
      if not (Bitmap.test bm 0) then err "inode bitmap" "bit 0 (invalid inode) is clear"
      else Ok bm

let load_block_bitmap t =
  let g = geometry t in
  match
    Bitmap.of_view t.viewer.view ~start:g.Layout.block_bitmap_start
      ~count:g.Layout.block_bitmap_len ~nbits:g.Layout.nblocks
  with
  | Error msg -> err "block bitmap" "%s" msg
  | Ok bm ->
      let rec check blk =
        if blk >= g.Layout.data_start then Ok bm
        else if not (Bitmap.test bm blk) then
          err "block bitmap" "metadata block %d is marked free" blk
        else check (blk + 1)
      in
      check 0

let read_inode_opt t ino =
  let g = geometry t in
  if ino < 1 || ino > g.Layout.ninodes then err "inode" "inode %d out of range" ino
  else
    let blk, off = Layout.inode_location g ino in
    t.viewer.view blk (fun b ->
        if Inode.is_free_slot b ~pos:off then Ok None
        else
          match Inode.decode b ~pos:off ~ino with
          | Ok inode -> Ok (Some inode)
          | Error e -> err "inode" "inode %d: %s" ino (Inode.error_to_string e))

let read_inode t ino =
  match read_inode_opt t ino with
  | Error e -> Error e
  | Ok (Some inode) -> Ok inode
  | Ok None -> err "inode" "inode %d is a free slot" ino

let valid_data_block g blk = blk >= g.Layout.data_start && blk < g.Layout.nblocks

let check_ptr g ~what blk =
  if blk = 0 || valid_data_block g blk then Ok blk
  else err what "block pointer %d outside data region [%d,%d)" blk g.Layout.data_start g.Layout.nblocks

let read_ptr_block t blk =
  (* An indirect block: array of u32 pointers. *)
  t.read blk

let ptr_at b i = Codec.get_u32_int b (4 * i)

(* Entry [i] of pointer block [blk], decoded in place. *)
let ptr t blk i = t.viewer.view blk (fun b -> ptr_at b i)

let file_block t inode idx =
  let g = geometry t in
  let ppb = Layout.pointers_per_block in
  if idx < 0 || idx >= Layout.max_file_blocks then err "file" "logical block %d out of range" idx
  else if idx < Layout.direct_pointers then
    check_ptr g ~what:"direct pointer" inode.Inode.direct.(idx)
  else
    let idx = idx - Layout.direct_pointers in
    if idx < ppb then
      if inode.Inode.indirect = 0 then Ok 0
      else
        match check_ptr g ~what:"indirect pointer" inode.Inode.indirect with
        | Error e -> Error e
        | Ok blk -> check_ptr g ~what:"indirect entry" (ptr t blk idx)
    else
      let idx = idx - ppb in
      if inode.Inode.double_indirect = 0 then Ok 0
      else
        match check_ptr g ~what:"double-indirect pointer" inode.Inode.double_indirect with
        | Error e -> Error e
        | Ok dblk -> (
            let l1 = ptr t dblk (idx / ppb) in
            match check_ptr g ~what:"double-indirect L1 entry" l1 with
            | Error e -> Error e
            | Ok 0 -> Ok 0
            | Ok l1blk -> check_ptr g ~what:"double-indirect L2 entry" (ptr t l1blk (idx mod ppb)))

let read_file_block t inode idx =
  match file_block t inode idx with
  | Error e -> Error e
  | Ok 0 -> Ok (Bytes.make Layout.block_size '\000')
  | Ok blk -> Ok (t.read blk)

let read_file t inode =
  let size = inode.Inode.size in
  let buf = Bytes.create size in
  let nblocks = Inode.blocks_for_size size in
  let rec go idx =
    if idx >= nblocks then Ok (Bytes.to_string buf)
    else
      match read_file_block t inode idx with
      | Error e -> Error e
      | Ok block ->
          let off = idx * Layout.block_size in
          let len = min Layout.block_size (size - off) in
          Bytes.blit block 0 buf off len;
          go (idx + 1)
  in
  go 0

let iter_file_blocks t inode ~f =
  let g = geometry t in
  let ppb = Layout.pointers_per_block in
  let nblocks = Inode.blocks_for_size inode.Inode.size in
  let ( let* ) = Result.bind in
  (* Direct pointers. *)
  let rec directs i =
    if i >= Layout.direct_pointers || i >= nblocks then Ok ()
    else
      let blk = inode.Inode.direct.(i) in
      let* _ = check_ptr g ~what:"direct pointer" blk in
      let* () = if blk <> 0 then f ~idx:i ~phys:blk else Ok () in
      directs (i + 1)
  in
  let* () = directs 0 in
  (* Single indirect. *)
  let* () =
    if inode.Inode.indirect = 0 then Ok ()
    else
      let* iblk = check_ptr g ~what:"indirect pointer" inode.Inode.indirect in
      let* () = f ~idx:(-1) ~phys:iblk in
      let b = read_ptr_block t iblk in
      let rec entries i =
        if i >= ppb || Layout.direct_pointers + i >= nblocks then Ok ()
        else
          let blk = ptr_at b i in
          let* _ = check_ptr g ~what:"indirect entry" blk in
          let* () = if blk <> 0 then f ~idx:(Layout.direct_pointers + i) ~phys:blk else Ok () in
          entries (i + 1)
      in
      entries 0
  in
  (* Double indirect. *)
  if inode.Inode.double_indirect = 0 then Ok ()
  else
    let* dblk = check_ptr g ~what:"double-indirect pointer" inode.Inode.double_indirect in
    let* () = f ~idx:(-1) ~phys:dblk in
    let l1 = read_ptr_block t dblk in
    let base = Layout.direct_pointers + ppb in
    let rec level1 i =
      if i >= ppb || base + (i * ppb) >= nblocks then Ok ()
      else
        let l1blk = ptr_at l1 i in
        let* _ = check_ptr g ~what:"double-indirect L1 entry" l1blk in
        if l1blk = 0 then level1 (i + 1)
        else
          let* () = f ~idx:(-1) ~phys:l1blk in
          let l2 = read_ptr_block t l1blk in
          let rec level2 j =
            if j >= ppb || base + (i * ppb) + j >= nblocks then Ok ()
            else
              let blk = ptr_at l2 j in
              let* _ = check_ptr g ~what:"double-indirect L2 entry" blk in
              let* () = if blk <> 0 then f ~idx:(base + (i * ppb) + j) ~phys:blk else Ok () in
              level2 (j + 1)
          in
          let* () = level2 0 in
          level1 (i + 1)
    in
    level1 0
