open Rae_vfs
open Rae_format
module Device = Rae_block.Device
module Blkmq = Rae_block.Blkmq
module Journal = Rae_journal.Journal

type config = {
  commit_interval : int;
  cache_policy : [ `Lru | `Two_q ];
  bcache_capacity : int;
  icache_capacity : int;
  dcache_capacity : int;
  validate_on_commit : bool;
  max_fds : int;
}

let default_config =
  {
    commit_interval = 64;
    cache_policy = `Two_q;
    bcache_capacity = 512;
    icache_capacity = 256;
    dcache_capacity = 1024;
    validate_on_commit = true;
    max_fds = 1024;
  }

module IntKey = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end

module BL = Rae_cache.Lru.Make (IntKey)
module BQ = Rae_cache.Two_q.Make (IntKey)
module IC = Rae_cache.Lru.Make (IntKey)

(* The block cache behind either replacement policy (ablation E-cache). *)
type bcache = Lru_c of bytes BL.t | Twoq_c of bytes BQ.t

let bc_create cfg =
  match cfg.cache_policy with
  | `Lru -> Lru_c (BL.create ~capacity:cfg.bcache_capacity ())
  | `Two_q -> Twoq_c (BQ.create ~capacity:cfg.bcache_capacity ())

let bc_find c k = match c with Lru_c c -> BL.find c k | Twoq_c c -> BQ.find c k
let bc_peek c k = match c with Lru_c c -> BL.peek c k | Twoq_c c -> BQ.peek c k
let bc_put c k v = match c with Lru_c c -> BL.put c k v | Twoq_c c -> BQ.put c k v
let bc_pin c k = match c with Lru_c c -> BL.pin c k | Twoq_c c -> BQ.pin c k
let bc_unpin c k = match c with Lru_c c -> BL.unpin c k | Twoq_c c -> BQ.unpin c k
let bc_clear c = match c with Lru_c c -> BL.clear c | Twoq_c c -> BQ.clear c
let bc_stats c = match c with Lru_c c -> BL.stats c | Twoq_c c -> BQ.stats c
let bc_reset_stats c = match c with Lru_c c -> BL.reset_stats c | Twoq_c c -> BQ.reset_stats c

type meta_kind = K_sb | K_bitmap | K_itable | K_dir | K_indirect

type fdinfo = { fino : Types.ino; fflags : Types.open_flags }

type stats = {
  ops_executed : int;
  commits : int;
  validations : int;
  bugs_fired : int;
}

type t = {
  dev : Device.t;
  cfg : config;
  geo : Layout.geometry;
  mutable mq : Blkmq.t;
  mutable journal : Journal.t;
  mutable sb : Superblock.t;
  mutable ibm : Bitmap.t;
  mutable bbm : Bitmap.t;
  bcache : bcache;
  icache : Inode.t IC.t;
  dcache : Rae_cache.Dentry.t;
  fds : (int, fdinfo) Hashtbl.t;
  orphans : (int, unit) Hashtbl.t;
  mutable time : int64;
  mutable txn : Journal.txn;
  txn_kinds : (int, meta_kind) Hashtbl.t;
  dirty_data : (int, unit) Hashtbl.t;
  (* Derived metadata changed since the last commit, serialized at the
     next one: the superblock, and each bitmap block (inode bitmap blocks
     first, then block bitmap blocks — the two regions are adjacent). *)
  mutable sb_dirty : bool;
  bm_dirty : bool array;
  mutable bm_ndirty : int;
  det : Detector.t;
  bug_reg : Bug_registry.t;
  mutable ops_since_commit : int;
  mutable s_ops : int;
  mutable s_commits : int;
  mutable s_validations : int;
  mutable commit_hooks : (commit_seq:int64 -> unit) list;
  mutable tracer : Rae_obs.Tracer.t option;
  mutable events : Rae_obs.Events.t option;  (* flight recorder; bug triggers land here *)
}

let dir_kind_code = Types.kind_code Types.Directory

(* ---- lifecycle ---- *)

let min_journal_len = 16

let mkfs dev ~ninodes ?journal_len () =
  match journal_len with
  | Some j when j < min_journal_len ->
      Error
        (Printf.sprintf "journal of %d blocks cannot hold a full transaction (minimum %d)" j
           min_journal_len)
  | Some _ | None -> (
  match Mkfs.format dev ~ninodes ?journal_len () with
  | Error msg -> Error msg
  | Ok sb ->
      Journal.format dev sb.Superblock.geometry;
      Ok ())

let mount ?(config = default_config) ?(bugs = Bug_registry.none) dev =
  match Superblock.decode (Device.read dev 0) with
  | Error e -> Error ("superblock: " ^ Superblock.error_to_string e)
  | exception Rae_util.Codec.Decode_error msg -> Error ("superblock: " ^ msg)
  | Ok sb0 -> (
      let geo = sb0.Superblock.geometry in
      match Journal.replay dev geo with
      | Error msg -> Error ("journal replay: " ^ msg)
      | Ok _replayed -> (
          (* Re-read post-replay state. *)
          match Superblock.decode (Device.read dev 0) with
          | Error e -> Error ("superblock after replay: " ^ Superblock.error_to_string e)
          | Ok sb -> (
              let read_region start len = List.init len (fun i -> Device.read dev (start + i)) in
              let ibm =
                Bitmap.of_blocks_lenient
                  (read_region geo.Layout.inode_bitmap_start geo.Layout.inode_bitmap_len)
                  ~nbits:(geo.Layout.ninodes + 1)
              in
              let bbm =
                Bitmap.of_blocks_lenient
                  (read_region geo.Layout.block_bitmap_start geo.Layout.block_bitmap_len)
                  ~nbits:geo.Layout.nblocks
              in
              match (ibm, bbm) with
              | Error msg, _ | _, Error msg -> Error ("bitmaps: " ^ msg)
              | Ok ibm, Ok bbm -> (
                  match Journal.attach dev geo with
                  | Error msg -> Error ("journal: " ^ msg)
                  | Ok journal ->
                      let t =
                        {
                          dev;
                          cfg = config;
                          geo;
                          mq = Blkmq.create dev;
                          journal;
                          sb = { sb with Superblock.mount_count = sb.Superblock.mount_count + 1 };
                          ibm;
                          bbm;
                          bcache = bc_create config;
                          icache = IC.create ~capacity:config.icache_capacity ();
                          dcache = Rae_cache.Dentry.create ~capacity:config.dcache_capacity;
                          fds = Hashtbl.create 64;
                          orphans = Hashtbl.create 16;
                          time = sb.Superblock.fs_time;
                          txn = Journal.begin_txn journal;
                          txn_kinds = Hashtbl.create 32;
                          dirty_data = Hashtbl.create 32;
                          sb_dirty = false;
                          bm_dirty =
                            Array.make (geo.Layout.inode_bitmap_len + geo.Layout.block_bitmap_len) false;
                          bm_ndirty = 0;
                          det = Detector.create ();
                          bug_reg = bugs;
                          ops_since_commit = 0;
                          s_ops = 0;
                          s_commits = 0;
                          s_validations = 0;
                          commit_hooks = [];
                          tracer = None;
                          events = None;
                        }
                      in
                      Ok t))))

(* ---- block IO through the cache + blk-mq ---- *)

let bget t blk =
  match bc_find t.bcache blk with
  | Some b -> b
  | None ->
      let req = Blkmq.submit_read t.mq blk in
      let data = match Blkmq.wait t.mq req with Some d -> d | None -> assert false in
      bc_put t.bcache blk data;
      data

(* Install a metadata block: cached (pinned until commit) and journalled.
   The cache entry and the transaction share [data]. *)
let bput_meta t blk data ~kind =
  bc_put t.bcache blk data;
  bc_pin t.bcache blk;
  Hashtbl.replace t.txn_kinds blk kind;
  Journal.txn_write t.txn blk data

(* Install a data block: cached (pinned) and queued for the pre-commit
   ordered flush. *)
let bput_data t blk data =
  bc_put t.bcache blk data;
  bc_pin t.bcache blk;
  Hashtbl.replace t.dirty_data blk ()

(* The one read-modify-write path.  [b] is [blk]'s cached image (from
   [bget]); the result is the running transaction's image of [blk], which
   the caller then writes in place.  A block the transaction already holds
   is returned as is — its cache entry and the transaction share one
   buffer.  A clean block is copied once, when the transaction first
   dirties it, so an image the device or an earlier commit has seen is
   never written through. *)
let writable t blk b ~route =
  let b = if Hashtbl.mem t.txn_kinds blk || Hashtbl.mem t.dirty_data blk then b else Bytes.copy b in
  (match route with `Data -> bput_data t blk b | `Meta kind -> bput_meta t blk b ~kind);
  b

(* The superblock and the bitmaps live in memory between commits: a
   mutation only marks them dirty, and [serialize_derived] encodes each
   once, at the commit barrier. *)
let flush_sb t =
  t.sb <-
    {
      t.sb with
      Superblock.fs_time = t.time;
      generation = Int64.add t.sb.Superblock.generation 1L;
      state = Superblock.Dirty;
    };
  t.sb_dirty <- true

let flush_bitmap_bit t which bit =
  let start, len =
    match which with
    | `Inode -> (t.geo.Layout.inode_bitmap_start, t.geo.Layout.inode_bitmap_len)
    | `Block -> (t.geo.Layout.block_bitmap_start, t.geo.Layout.block_bitmap_len)
  in
  let index = bit / Layout.bits_per_block in
  if index >= len then Detector.bug_fail ~bug:"bitmap-io" "bitmap block %d out of range" index;
  let i = start + index - t.geo.Layout.inode_bitmap_start in
  if not t.bm_dirty.(i) then begin
    t.bm_dirty.(i) <- true;
    t.bm_ndirty <- t.bm_ndirty + 1
  end

(* Journal the dirty bitmap blocks and the superblock, after every other
   write of the commit. *)
let serialize_derived t =
  let g = t.geo in
  if t.bm_ndirty > 0 then begin
    for i = 0 to Array.length t.bm_dirty - 1 do
      if t.bm_dirty.(i) then begin
        t.bm_dirty.(i) <- false;
        let image =
          if i < g.Layout.inode_bitmap_len then
            Bitmap.encode_block t.ibm ~block_size:Layout.block_size i
          else Bitmap.encode_block t.bbm ~block_size:Layout.block_size (i - g.Layout.inode_bitmap_len)
        in
        bput_meta t (g.Layout.inode_bitmap_start + i) image ~kind:K_bitmap
      end
    done;
    t.bm_ndirty <- 0
  end;
  if t.sb_dirty then begin
    t.sb_dirty <- false;
    bput_meta t 0 (Superblock.encode t.sb) ~kind:K_sb
  end

(* Blocks the next commit writes, derived metadata included. *)
let pending_blocks t =
  Journal.txn_block_count t.txn + t.bm_ndirty + if t.sb_dirty then 1 else 0

(* ---- validation at the commit barrier (Recon-style) ---- *)

let validate_txn t =
  t.s_validations <- t.s_validations + 1;
  Journal.txn_iter t.txn (fun blk data ->
      match Hashtbl.find_opt t.txn_kinds blk with
      | None -> ()
      | Some K_sb -> (
          match Superblock.decode data with
          | Error e ->
              Detector.validation_fail ~context:"superblock" "%s" (Superblock.error_to_string e)
          | Ok sb ->
              if sb.Superblock.free_inodes <> Bitmap.count_free t.ibm then
                Detector.validation_fail ~context:"superblock"
                  "free_inodes %d disagrees with inode bitmap (%d)" sb.Superblock.free_inodes
                  (Bitmap.count_free t.ibm);
              if sb.Superblock.free_blocks <> Bitmap.count_free t.bbm then
                Detector.validation_fail ~context:"superblock"
                  "free_blocks %d disagrees with block bitmap (%d)" sb.Superblock.free_blocks
                  (Bitmap.count_free t.bbm))
      | Some K_dir -> (
          match Dirent.validate data with
          | Ok () -> ()
          | Error e ->
              Detector.validation_fail ~context:"directory block" "block %d: %s" blk
                (Dirent.error_to_string e))
      | Some K_itable ->
          let base_ino =
            ((blk - t.geo.Layout.inode_table_start) * Layout.inodes_per_block) + 1
          in
          for slot = 0 to Layout.inodes_per_block - 1 do
            let pos = slot * Layout.inode_size in
            if not (Inode.is_free_slot data ~pos) then
              match Inode.decode data ~pos ~ino:(base_ino + slot) with
              | Ok _ -> ()
              | Error e ->
                  Detector.validation_fail ~context:"inode table" "inode %d: %s" (base_ino + slot)
                    (Inode.error_to_string e)
          done
      | Some K_indirect ->
          for i = 0 to Layout.pointers_per_block - 1 do
            let p = Rae_util.Codec.get_u32_int data (4 * i) in
            if p <> 0 && not (Reader.valid_data_block t.geo p) then
              Detector.validation_fail ~context:"indirect block" "block %d entry %d -> %d" blk i p
          done
      | Some K_bitmap -> ())

let commit_work t =
  begin
    serialize_derived t;
    if t.cfg.validate_on_commit then validate_txn t;
    (* Ordered mode: data reaches the medium before the metadata that
       references it commits. *)
    Hashtbl.iter
      (fun blk () ->
        match bc_peek t.bcache blk with
        | Some data -> ignore (Blkmq.submit_write t.mq blk data)
        | None -> Detector.bug_fail ~bug:"writeback" "dirty data block %d lost from the cache" blk)
      t.dirty_data;
    Blkmq.drain t.mq;
    Hashtbl.iter (fun blk () -> bc_unpin t.bcache blk) t.dirty_data;
    Hashtbl.reset t.dirty_data;
    Journal.commit t.journal t.txn;
    Hashtbl.iter (fun blk _ -> bc_unpin t.bcache blk) t.txn_kinds;
    Hashtbl.reset t.txn_kinds;
    t.txn <- Journal.begin_txn t.journal;
    t.ops_since_commit <- 0;
    t.s_commits <- t.s_commits + 1;
    let commit_seq = Journal.commit_seq t.journal in
    List.iter (fun hook -> hook ~commit_seq) t.commit_hooks
  end

let commit t =
  if pending_blocks t > 0 || Hashtbl.length t.dirty_data > 0 then
    match t.tracer with
    | Some tr -> Rae_obs.Tracer.with_span tr ~cat:"commit" "base.commit" (fun () -> commit_work t)
    | None -> commit_work t

let on_commit t hook = t.commit_hooks <- t.commit_hooks @ [ hook ]
let ops_since_commit t = t.ops_since_commit

(* ---- inode IO (trusting fast path) ---- *)

let load_inode t ino =
  if ino < 1 || ino > t.geo.Layout.ninodes then
    Detector.bug_fail ~bug:"wild-inode" "inode number %d out of range (oops)" ino;
  match IC.find t.icache ino with
  | Some inode -> inode
  | None ->
      let blk, pos = Layout.inode_location t.geo ino in
      let b = bget t blk in
      if Inode.is_free_slot b ~pos then
        Detector.bug_fail ~bug:"stale-entry" "dangling reference to free inode %d (oops)" ino;
      (match Types.kind_of_code (Rae_util.Codec.get_u16 b pos) with
      | Some _ -> ()
      | None -> Detector.bug_fail ~bug:"crafted-inode" "invalid inode kind for %d (oops)" ino);
      let inode = Inode.decode_nocheck b ~pos in
      IC.put t.icache ino inode;
      inode

let store_inode t ino inode =
  IC.put t.icache ino inode;
  let blk, pos = Layout.inode_location t.geo ino in
  Inode.encode inode ~ino (writable t blk (bget t blk) ~route:(`Meta K_itable)) ~pos

let clear_inode_slot t ino =
  IC.remove t.icache ino;
  let blk, pos = Layout.inode_location t.geo ino in
  Bytes.fill (writable t blk (bget t blk) ~route:(`Meta K_itable)) pos Layout.inode_size '\000'

(* ---- allocation (trusting: plain bit flips, no double-alloc checks) ---- *)

let alloc_ino t =
  match Bitmap.find_free t.ibm ~from:1 with
  | None -> Error Errno.ENOSPC
  | Some ino ->
      Bitmap.set t.ibm ino;
      t.sb <- { t.sb with Superblock.free_inodes = t.sb.Superblock.free_inodes - 1 };
      flush_bitmap_bit t `Inode ino;
      Ok ino

let free_ino t ino =
  Bitmap.clear t.ibm ino;
  t.sb <- { t.sb with Superblock.free_inodes = t.sb.Superblock.free_inodes + 1 };
  clear_inode_slot t ino;
  flush_bitmap_bit t `Inode ino

(* [purpose] decides the dirty route for the freshly zeroed block.  Block
   allocation is next-fit: the bitmap's rotor resumes where the last
   allocation succeeded and wraps once, so an append-heavy workload stops
   re-scanning the allocated prefix.  Inode allocation above stays
   first-fit — inode numbers are application-visible and the spec model
   (and constrained-mode replay) expect lowest-free reuse. *)
let alloc_block t ~purpose =
  match Bitmap.find_free_next t.bbm ~lo:t.geo.Layout.data_start with
  | None -> Error Errno.ENOSPC
  | Some blk ->
      Bitmap.set t.bbm blk;
      t.sb <- { t.sb with Superblock.free_blocks = t.sb.Superblock.free_blocks - 1 };
      flush_bitmap_bit t `Block blk;
      (match purpose with
      | `Data -> bput_data t blk (Bytes.make Layout.block_size '\000')
      | `Dir -> bput_meta t blk (Dirent.empty_block ()) ~kind:K_dir
      | `Indirect -> bput_meta t blk (Bytes.make Layout.block_size '\000') ~kind:K_indirect);
      Ok blk

(* Forget-on-free: besides the revoke, the block leaves the running
   transaction — its buffered image, its kind, its ordered-data entry and
   its pin.  Otherwise a block reused before this transaction commits
   would have the stale image written over its new contents. *)
let free_block t blk =
  Bitmap.clear t.bbm blk;
  t.sb <- { t.sb with Superblock.free_blocks = t.sb.Superblock.free_blocks + 1 };
  Journal.txn_revoke t.txn blk;
  Journal.txn_forget t.txn blk;
  Hashtbl.remove t.txn_kinds blk;
  Hashtbl.remove t.dirty_data blk;
  bc_unpin t.bcache blk;
  flush_bitmap_bit t `Block blk

(* ---- logical -> physical mapping (trusting) ---- *)

let ppb = Layout.pointers_per_block
let ptr_get b i = Rae_util.Codec.get_u32_int b (4 * i)
let ptr_set b i v = Rae_util.Codec.set_u32_int b (4 * i) v

let get_block t inode idx =
  if idx < 0 || idx >= Layout.max_file_blocks then
    Detector.bug_fail ~bug:"wild-index" "logical block %d out of range (oops)" idx;
  if idx < Layout.direct_pointers then inode.Inode.direct.(idx)
  else
    let idx1 = idx - Layout.direct_pointers in
    if idx1 < ppb then
      if inode.Inode.indirect = 0 then 0 else ptr_get (bget t inode.Inode.indirect) idx1
    else
      let idx2 = idx1 - ppb in
      if inode.Inode.double_indirect = 0 then 0
      else
        let l1 = ptr_get (bget t inode.Inode.double_indirect) (idx2 / ppb) in
        if l1 = 0 then 0 else ptr_get (bget t l1) (idx2 mod ppb)

let set_block t inode idx phys =
  if idx < Layout.direct_pointers then begin
    let direct = Array.copy inode.Inode.direct in
    direct.(idx) <- phys;
    Ok { inode with Inode.direct }
  end
  else
    let idx1 = idx - Layout.direct_pointers in
    if idx1 < ppb then
      let ensure =
        if inode.Inode.indirect = 0 then
          Result.map
            (fun b -> (b, { inode with Inode.indirect = b }))
            (alloc_block t ~purpose:`Indirect)
        else Ok (inode.Inode.indirect, inode)
      in
      Result.map
        (fun (iblk, inode) ->
          ptr_set (writable t iblk (bget t iblk) ~route:(`Meta K_indirect)) idx1 phys;
          inode)
        ensure
    else
      let idx2 = idx1 - ppb in
      let ensure_d =
        if inode.Inode.double_indirect = 0 then
          Result.map
            (fun b -> (b, { inode with Inode.double_indirect = b }))
            (alloc_block t ~purpose:`Indirect)
        else Ok (inode.Inode.double_indirect, inode)
      in
      Result.bind ensure_d (fun (dblk, inode) ->
          let db = bget t dblk in
          let l1_index = idx2 / ppb in
          let ensure_l1 =
            let l1 = ptr_get db l1_index in
            if l1 = 0 then
              Result.map
                (fun b ->
                  ptr_set (writable t dblk db ~route:(`Meta K_indirect)) l1_index b;
                  b)
                (alloc_block t ~purpose:`Indirect)
            else Ok l1
          in
          Result.map
            (fun l1blk ->
              ptr_set (writable t l1blk (bget t l1blk) ~route:(`Meta K_indirect)) (idx2 mod ppb) phys;
              inode)
            ensure_l1)

let shrink_blocks t inode ~keep =
  let old_n = Inode.blocks_for_size inode.Inode.size in
  for idx = keep to old_n - 1 do
    let phys = get_block t inode idx in
    if phys <> 0 then free_block t phys
  done;
  let direct = Array.copy inode.Inode.direct in
  for idx = keep to Layout.direct_pointers - 1 do
    if idx >= 0 then direct.(idx) <- 0
  done;
  let inode = { inode with Inode.direct } in
  let base1 = Layout.direct_pointers in
  let inode =
    if inode.Inode.indirect = 0 then inode
    else if keep <= base1 then begin
      free_block t inode.Inode.indirect;
      { inode with Inode.indirect = 0 }
    end
    else begin
      let iblk = inode.Inode.indirect in
      let b = writable t iblk (bget t iblk) ~route:(`Meta K_indirect) in
      for i = keep - base1 to ppb - 1 do
        ptr_set b i 0
      done;
      inode
    end
  in
  let base2 = Layout.direct_pointers + ppb in
  if inode.Inode.double_indirect = 0 then inode
  else begin
    let dblk = inode.Inode.double_indirect in
    (* A double-indirect block freed whole is only read; a kept one is
       trimmed in place. *)
    let whole = keep <= base2 in
    let db = if whole then bget t dblk else writable t dblk (bget t dblk) ~route:(`Meta K_indirect) in
    let keep2 = max 0 (keep - base2) in
    for i = 0 to ppb - 1 do
      let l1 = ptr_get db i in
      if l1 <> 0 then
        if i * ppb >= keep2 then begin
          free_block t l1;
          if not whole then ptr_set db i 0
        end
        else if (i + 1) * ppb > keep2 then begin
          let lb = writable t l1 (bget t l1) ~route:(`Meta K_indirect) in
          for j = keep2 - (i * ppb) to ppb - 1 do
            ptr_set lb j 0
          done
        end
    done;
    if whole then begin
      free_block t dblk;
      { inode with Inode.double_indirect = 0 }
    end
    else inode
  end

(* ---- file data IO ---- *)

let read_range t inode ~off ~len =
  let size = inode.Inode.size in
  if off >= size then ""
  else begin
    let len = min len (size - off) in
    let buf = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let abs = off + !pos in
      let idx = abs / Layout.block_size and boff = abs mod Layout.block_size in
      let chunk = min (Layout.block_size - boff) (len - !pos) in
      let phys = get_block t inode idx in
      if phys = 0 then Bytes.fill buf !pos chunk '\000'
      else begin
        let b = bget t phys in
        Bytes.blit b boff buf !pos chunk
      end;
      pos := !pos + chunk
    done;
    Bytes.to_string buf
  end

let write_range t inode ~off data =
  let len = String.length data in
  let rec go inode pos =
    if pos >= len then Ok inode
    else begin
      let abs = off + pos in
      let idx = abs / Layout.block_size and boff = abs mod Layout.block_size in
      let chunk = min (Layout.block_size - boff) (len - pos) in
      let phys = get_block t inode idx in
      let with_block =
        if phys <> 0 then Ok (inode, phys)
        else
          Result.bind (alloc_block t ~purpose:`Data) (fun blk ->
              Result.map (fun inode -> (inode, blk)) (set_block t inode idx blk))
      in
      match with_block with
      | Error e -> Error e
      | Ok (inode, phys) ->
          Bytes.blit_string data pos (writable t phys (bget t phys) ~route:`Data) boff chunk;
          go inode (pos + chunk)
    end
  in
  Result.map (fun inode -> { inode with Inode.size = max inode.Inode.size (off + len) }) (go inode 0)

(* ---- directories (trusting walk; dentry cache in front) ---- *)

let dir_nblocks inode = Inode.blocks_for_size inode.Inode.size

let dir_block t inode idx =
  let phys = get_block t inode idx in
  if phys = 0 then
    Detector.bug_fail ~bug:"dir-hole" "directory hole at logical block %d (oops)" idx;
  (phys, bget t phys)

(* The base's kernel-like stance: a malformed directory block is a BUG. *)
let trusting_entries b =
  match Dirent.list b with
  | Ok entries -> entries
  | Error e ->
      Detector.bug_fail ~bug:"crafted-dirent" "corrupted directory entry: %s (oops)"
        (Dirent.error_to_string e)

let dir_scan t inode name =
  let n = dir_nblocks inode in
  let rec go idx =
    if idx >= n then None
    else
      let _, b = dir_block t inode idx in
      match List.find_opt (fun e -> String.equal e.Dirent.name name) (trusting_entries b) with
      | Some e -> Some e
      | None -> go (idx + 1)
  in
  go 0

(* Lookup one component with the dentry cache (positive and negative). *)
let dir_child t ~dino inode name =
  match Rae_cache.Dentry.find t.dcache ~dir:dino ~name with
  | Some (Rae_cache.Dentry.Present { ino; kind }) -> Some (ino, kind)
  | Some Rae_cache.Dentry.Absent -> None
  | None -> (
      match dir_scan t inode name with
      | Some e ->
          let kind =
            match Types.kind_of_code e.Dirent.kind_code with
            | Some k -> k
            | None ->
                Detector.bug_fail ~bug:"crafted-dirent" "entry %S has invalid kind (oops)" name
          in
          Rae_cache.Dentry.add t.dcache ~dir:dino ~name (Rae_cache.Dentry.Present { ino = e.Dirent.ino; kind });
          Some (e.Dirent.ino, kind)
      | None ->
          Rae_cache.Dentry.add t.dcache ~dir:dino ~name Rae_cache.Dentry.Absent;
          None)

let dir_list t inode =
  let n = dir_nblocks inode in
  let rec go idx acc = if idx >= n then acc else go (idx + 1) (acc @ trusting_entries (snd (dir_block t inode idx))) in
  go 0 []

let dir_is_empty t inode =
  List.for_all (fun e -> e.Dirent.name = "." || e.Dirent.name = "..") (dir_list t inode)

let dir_insert t dinode ~dino ~name ~ino ~kind_code =
  let n = dir_nblocks dinode in
  let rec try_existing idx =
    if idx >= n then None
    else begin
      let phys, b = dir_block t dinode idx in
      if Dirent.has_room b ~name then begin
        ignore (Dirent.insert (writable t phys b ~route:(`Meta K_dir)) ~name ~ino ~kind_code);
        Some dinode
      end
      else try_existing (idx + 1)
    end
  in
  let update_dcache () =
    match Types.kind_of_code kind_code with
    | Some kind -> Rae_cache.Dentry.add t.dcache ~dir:dino ~name (Rae_cache.Dentry.Present { ino; kind })
    | None -> ()
  in
  match try_existing 0 with
  | Some dinode ->
      update_dcache ();
      Ok dinode
  | None ->
      Result.bind (alloc_block t ~purpose:`Dir) (fun blk ->
          ignore (Dirent.insert (writable t blk (bget t blk) ~route:(`Meta K_dir)) ~name ~ino ~kind_code);
          Result.map
            (fun dinode ->
              update_dcache ();
              { dinode with Inode.size = dinode.Inode.size + Layout.block_size })
            (set_block t dinode n blk))

let dir_remove t dinode ~dino ~name =
  let n = dir_nblocks dinode in
  let rec go idx =
    if idx >= n then false
    else begin
      let phys, b = dir_block t dinode idx in
      if Dirent.mem b name then begin
        ignore (Dirent.remove (writable t phys b ~route:(`Meta K_dir)) name);
        Rae_cache.Dentry.add t.dcache ~dir:dino ~name Rae_cache.Dentry.Absent;
        true
      end
      else go (idx + 1)
    end
  in
  go 0

let dir_set_dotdot t dinode ~parent =
  let phys, b = dir_block t dinode 0 in
  if not (Dirent.mem b "..") then
    Detector.bug_fail ~bug:"dir-structure" "directory missing \"..\" (oops)";
  ignore (Dirent.set_entry_ino (writable t phys b ~route:(`Meta K_dir)) ".." parent)

(* ---- path resolution (dcache-accelerated) ---- *)

let rec walk t ino components ~follow_last ~budget =
  match components with
  | [] -> Ok ino
  | name :: rest -> (
      let inode = load_inode t ino in
      match inode.Inode.kind with
      | Types.Regular | Types.Symlink -> Error Errno.ENOTDIR
      | Types.Directory -> (
          match dir_child t ~dino:ino inode name with
          | None -> Error Errno.ENOENT
          | Some (child, kind) -> (
              match kind with
              | Types.Symlink when rest <> [] || follow_last ->
                  if budget <= 0 then Error Errno.ELOOP
                  else
                    let cinode = load_inode t child in
                    let target = read_range t cinode ~off:0 ~len:cinode.Inode.size in
                    (match Path.parse target with
                    | Error _ -> Error Errno.ENOENT
                    | Ok target_components ->
                        walk t Types.root_ino (target_components @ rest) ~follow_last
                          ~budget:(budget - 1))
              | Types.Regular | Types.Directory | Types.Symlink ->
                  walk t child rest ~follow_last ~budget)))

let resolve t path ~follow_last =
  walk t Types.root_ino path ~follow_last ~budget:Types.max_symlink_depth

let resolve_parent t path =
  match Path.split_last path with
  | None -> Error Errno.EEXIST
  | Some (parent, name) -> (
      match resolve t parent ~follow_last:true with
      | Error e -> Error e
      | Ok pino ->
          let pinode = load_inode t pino in
          if pinode.Inode.kind <> Types.Directory then Error Errno.ENOTDIR
          else Ok (pino, pinode, name))

(* ---- fd table / orphans ---- *)

let alloc_fd t =
  let rec go i = if Hashtbl.mem t.fds i then go (i + 1) else i in
  go 0

let fd_refs t ino = Hashtbl.fold (fun _ f acc -> acc || f.fino = ino) t.fds false

let maybe_reclaim t ino =
  let inode = load_inode t ino in
  if inode.Inode.nlink = 0 && not (fd_refs t ino) then begin
    ignore (shrink_blocks t inode ~keep:0);
    Hashtbl.remove t.orphans ino;
    free_ino t ino
  end

(* ---- mutation epilogue ---- *)

(* Largest running transaction we let accumulate before forcing a commit:
   bounded both by a policy constant and by what the journal region can
   physically hold. *)
let txn_soft_limit t = max 4 (min 300 (t.geo.Layout.journal_len - 8))

let tick t =
  t.time <- Int64.add t.time 1L;
  t.time

let finish_mutation t =
  flush_sb t;
  t.ops_since_commit <- t.ops_since_commit + 1;
  if
    t.ops_since_commit >= t.cfg.commit_interval
    || pending_blocks t > txn_soft_limit t
  then commit t

let touch t ino ~time =
  let inode = load_inode t ino in
  store_inode t ino { inode with Inode.mtime = time; ctime = time }

let guard f = try f () with Device.Io_error _ -> Error Errno.EIO

(* ---- operations ---- *)

let mode_ok mode = mode land lnot 0o777 = 0

let create_node t path ~mode ~kind ~content =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (pino, pinode, name) -> (
      match dir_child t ~dino:pino pinode name with
      | Some _ -> Error Errno.EEXIST
      | None -> (
          match alloc_ino t with
          | Error e -> Error e
          | Ok ino ->
              let time = tick t in
              let result =
                let base = Inode.empty kind ~mode ~time in
                match kind with
                | Types.Directory ->
                    Result.bind (alloc_block t ~purpose:`Dir) (fun blk ->
                        let b = writable t blk (bget t blk) ~route:(`Meta K_dir) in
                        ignore (Dirent.insert b ~name:"." ~ino ~kind_code:dir_kind_code);
                        ignore (Dirent.insert b ~name:".." ~ino:pino ~kind_code:dir_kind_code);
                        set_block t { base with Inode.nlink = 2; size = Layout.block_size } 0 blk)
                | Types.Regular -> Ok base
                | Types.Symlink -> write_range t { base with Inode.mode = 0o777 } ~off:0 content
              in
              (match result with
              | Error e ->
                  free_ino t ino;
                  t.time <- Int64.sub t.time 1L;
                  Error e
              | Ok inode -> (
                  store_inode t ino inode;
                  match dir_insert t pinode ~dino:pino ~name ~ino ~kind_code:(Types.kind_code kind) with
                  | Error e ->
                      ignore (shrink_blocks t inode ~keep:0);
                      free_ino t ino;
                      t.time <- Int64.sub t.time 1L;
                      Error e
                  | Ok pinode ->
                      let pinode =
                        if kind = Types.Directory then { pinode with Inode.nlink = pinode.Inode.nlink + 1 }
                        else pinode
                      in
                      store_inode t pino { pinode with Inode.mtime = time; ctime = time };
                      finish_mutation t;
                      Ok ino))))

let create t path ~mode =
  guard (fun () ->
      if path = [] then Error Errno.EEXIST
      else if not (mode_ok mode) then Error Errno.EINVAL
      else create_node t path ~mode ~kind:Types.Regular ~content:"")

let mkdir t path ~mode =
  guard (fun () ->
      if path = [] then Error Errno.EEXIST
      else if not (mode_ok mode) then Error Errno.EINVAL
      else create_node t path ~mode ~kind:Types.Directory ~content:"")

let symlink t ~target path =
  guard (fun () ->
      if path = [] then Error Errno.EEXIST
      else if String.length target = 0 then Error Errno.ENOENT
      else if String.length target > 4095 then Error Errno.ENAMETOOLONG
      else create_node t path ~mode:0o777 ~kind:Types.Symlink ~content:target)

let unlink t path =
  guard (fun () ->
      if path = [] then Error Errno.EISDIR
      else
        match resolve_parent t path with
        | Error e -> Error e
        | Ok (pino, pinode, name) -> (
            match dir_child t ~dino:pino pinode name with
            | None -> Error Errno.ENOENT
            | Some (ino, _) ->
                let inode = load_inode t ino in
                if inode.Inode.kind = Types.Directory then Error Errno.EISDIR
                else begin
                  let time = tick t in
                  ignore (dir_remove t pinode ~dino:pino ~name);
                  store_inode t ino { inode with Inode.nlink = inode.Inode.nlink - 1; ctime = time };
                  touch t pino ~time;
                  if inode.Inode.nlink - 1 = 0 then
                    if fd_refs t ino then Hashtbl.replace t.orphans ino ()
                    else maybe_reclaim t ino;
                  finish_mutation t;
                  Ok ()
                end))

let rmdir t path =
  guard (fun () ->
      if path = [] then Error Errno.EINVAL
      else
        match resolve_parent t path with
        | Error e -> Error e
        | Ok (pino, pinode, name) -> (
            match dir_child t ~dino:pino pinode name with
            | None -> Error Errno.ENOENT
            | Some (ino, _) ->
                let inode = load_inode t ino in
                if inode.Inode.kind <> Types.Directory then Error Errno.ENOTDIR
                else if not (dir_is_empty t inode) then Error Errno.ENOTEMPTY
                else begin
                  let time = tick t in
                  ignore (dir_remove t pinode ~dino:pino ~name);
                  ignore (shrink_blocks t inode ~keep:0);
                  free_ino t ino;
                  Rae_cache.Dentry.invalidate_dir t.dcache ~dir:ino;
                  let pinode = load_inode t pino in
                  store_inode t pino
                    { pinode with Inode.nlink = pinode.Inode.nlink - 1; mtime = time; ctime = time };
                  finish_mutation t;
                  Ok ()
                end))

let flags_valid (f : Types.open_flags) =
  (f.rd || f.wr)
  && (not (f.trunc && not f.wr))
  && (not (f.excl && not f.creat))
  && not (f.append && not f.wr)

let openf t path flags =
  guard (fun () ->
      if not (flags_valid flags) then Error Errno.EINVAL
      else if Hashtbl.length t.fds >= t.cfg.max_fds then Error Errno.EMFILE
      else
        match resolve t path ~follow_last:true with
        | Ok ino ->
            if flags.Types.excl then Error Errno.EEXIST
            else begin
              let inode = load_inode t ino in
              match inode.Inode.kind with
              | Types.Directory -> Error Errno.EISDIR
              | Types.Symlink -> Error Errno.ELOOP
              | Types.Regular ->
                  if flags.Types.trunc && inode.Inode.size > 0 then begin
                    let time = tick t in
                    let inode = shrink_blocks t inode ~keep:0 in
                    store_inode t ino { inode with Inode.size = 0; mtime = time; ctime = time };
                    finish_mutation t
                  end;
                  let fd = alloc_fd t in
                  Hashtbl.replace t.fds fd { fino = ino; fflags = flags };
                  Ok fd
            end
        | Error Errno.ENOENT when flags.Types.creat -> (
            match resolve_parent t path with
            | Error e -> Error e
            | Ok (pino, pinode, name) -> (
                match dir_child t ~dino:pino pinode name with
                | Some _ -> Error Errno.ENOENT (* dangling symlink *)
                | None -> (
                    match create_node t path ~mode:0o644 ~kind:Types.Regular ~content:"" with
                    | Error e -> Error e
                    | Ok ino ->
                        let fd = alloc_fd t in
                        Hashtbl.replace t.fds fd { fino = ino; fflags = flags };
                        Ok fd)))
        | Error e -> Error e)

let close t fd =
  guard (fun () ->
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some { fino; _ } ->
          Hashtbl.remove t.fds fd;
          if Hashtbl.mem t.orphans fino then begin
            maybe_reclaim t fino;
            flush_sb t
          end;
          Ok ())

let pread t fd ~off ~len =
  guard (fun () ->
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some { fino; fflags } ->
          if not fflags.Types.rd then Error Errno.EBADF
          else if off < 0 || len < 0 then Error Errno.EINVAL
          else Ok (read_range t (load_inode t fino) ~off ~len))

let pwrite t fd ~off data =
  guard (fun () ->
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some { fino; fflags } ->
          if not fflags.Types.wr then Error Errno.EBADF
          else if off < 0 then Error Errno.EINVAL
          else
            let len = String.length data in
            if len = 0 then Ok 0
            else begin
              let inode = load_inode t fino in
              let eff_off = if fflags.Types.append then inode.Inode.size else off in
              if eff_off + len > Layout.max_file_size then Error Errno.EFBIG
              else
                let time = tick t in
                match write_range t inode ~off:eff_off data with
                | Error e ->
                    t.time <- Int64.sub t.time 1L;
                    let inode' = shrink_blocks t inode ~keep:(Inode.blocks_for_size inode.Inode.size) in
                    store_inode t fino inode';
                    flush_sb t;
                    Error e
                | Ok inode ->
                    store_inode t fino { inode with Inode.mtime = time; ctime = time };
                    finish_mutation t;
                    Ok len
            end)

let lookup t path = guard (fun () -> resolve t path ~follow_last:true)

let stat_of t ino =
  let inode = load_inode t ino in
  let size =
    match inode.Inode.kind with
    | Types.Regular | Types.Symlink -> inode.Inode.size
    | Types.Directory -> 0
  in
  {
    Types.st_ino = ino;
    st_kind = inode.Inode.kind;
    st_size = size;
    st_nlink = inode.Inode.nlink;
    st_mode = inode.Inode.mode;
    st_mtime = inode.Inode.mtime;
    st_ctime = inode.Inode.ctime;
  }

let stat t path =
  guard (fun () -> Result.map (fun ino -> stat_of t ino) (resolve t path ~follow_last:true))

let fstat t fd =
  guard (fun () ->
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some { fino; _ } -> Ok (stat_of t fino))

let readdir t path =
  guard (fun () ->
      match resolve t path ~follow_last:true with
      | Error e -> Error e
      | Ok ino ->
          let inode = load_inode t ino in
          if inode.Inode.kind <> Types.Directory then Error Errno.ENOTDIR
          else
            Ok
              (dir_list t inode
              |> List.filter_map (fun e ->
                     if e.Dirent.name = "." || e.Dirent.name = ".." then None else Some e.Dirent.name)
              |> List.sort compare))

let rename t src dst =
  guard (fun () ->
      if src = [] || dst = [] then Error Errno.EINVAL
      else if Path.equal src dst then (
        match resolve_parent t src with
        | Error e -> Error e
        | Ok (pino, pinode, name) -> (
            match dir_child t ~dino:pino pinode name with
            | None -> Error Errno.ENOENT
            | Some _ -> Ok ()))
      else
        match resolve_parent t src with
        | Error e -> Error e
        | Ok (spino, spinode, sname) -> (
            match dir_child t ~dino:spino spinode sname with
            | None -> Error Errno.ENOENT
            | Some (sino, skind) -> (
                let src_is_dir = skind = Types.Directory in
                if src_is_dir && Path.is_prefix src ~of_:dst then Error Errno.EINVAL
                else
                  match resolve_parent t dst with
                  | Error e -> Error e
                  | Ok (dpino, dpinode, dname) -> (
                      let dst_existing = dir_child t ~dino:dpino dpinode dname in
                      match dst_existing with
                      | Some (dino, _) when dino = sino -> Ok ()
                      | _ -> (
                          let clear_destination () =
                            match dst_existing with
                            | None -> Ok `Nothing
                            | Some (dino, dkind) -> (
                                match (src_is_dir, dkind) with
                                | true, (Types.Regular | Types.Symlink) -> Error Errno.ENOTDIR
                                | true, Types.Directory ->
                                    if not (dir_is_empty t (load_inode t dino)) then
                                      Error Errno.ENOTEMPTY
                                    else Ok (`Replace_dir dino)
                                | false, Types.Directory -> Error Errno.EISDIR
                                | false, (Types.Regular | Types.Symlink) -> Ok (`Replace_file dino))
                          in
                          match clear_destination () with
                          | Error e -> Error e
                          | Ok disposition ->
                              let time = tick t in
                              (match disposition with
                              | `Nothing -> ()
                              | `Replace_dir dino ->
                                  ignore (dir_remove t (load_inode t dpino) ~dino:dpino ~name:dname);
                                  ignore (shrink_blocks t (load_inode t dino) ~keep:0);
                                  free_ino t dino;
                                  Rae_cache.Dentry.invalidate_dir t.dcache ~dir:dino;
                                  let dp = load_inode t dpino in
                                  store_inode t dpino { dp with Inode.nlink = dp.Inode.nlink - 1 }
                              | `Replace_file dino ->
                                  ignore (dir_remove t (load_inode t dpino) ~dino:dpino ~name:dname);
                                  let dinode = load_inode t dino in
                                  store_inode t dino
                                    { dinode with Inode.nlink = dinode.Inode.nlink - 1 };
                                  if dinode.Inode.nlink - 1 = 0 then
                                    if fd_refs t dino then Hashtbl.replace t.orphans dino ()
                                    else maybe_reclaim t dino);
                              let spinode = load_inode t spino in
                              ignore (dir_remove t spinode ~dino:spino ~name:sname);
                              let dpinode = load_inode t dpino in
                              (match
                                 dir_insert t dpinode ~dino:dpino ~name:dname ~ino:sino
                                   ~kind_code:(Types.kind_code skind)
                               with
                              | Error e -> Error e
                              | Ok dpinode ->
                                  store_inode t dpino dpinode;
                                  if src_is_dir && spino <> dpino then begin
                                    dir_set_dotdot t (load_inode t sino) ~parent:dpino;
                                    let sp = load_inode t spino in
                                    store_inode t spino { sp with Inode.nlink = sp.Inode.nlink - 1 };
                                    let dp = load_inode t dpino in
                                    store_inode t dpino { dp with Inode.nlink = dp.Inode.nlink + 1 }
                                  end;
                                  let s = load_inode t sino in
                                  store_inode t sino { s with Inode.ctime = time };
                                  touch t spino ~time;
                                  touch t dpino ~time;
                                  finish_mutation t;
                                  Ok ()))))))

let truncate t path ~size =
  guard (fun () ->
      if size < 0 then Error Errno.EINVAL
      else if size > Layout.max_file_size then Error Errno.EFBIG
      else
        match resolve t path ~follow_last:true with
        | Error e -> Error e
        | Ok ino -> (
            let inode = load_inode t ino in
            match inode.Inode.kind with
            | Types.Directory -> Error Errno.EISDIR
            | Types.Symlink -> Error Errno.EINVAL
            | Types.Regular ->
                let time = tick t in
                let keep = Inode.blocks_for_size size in
                let inode =
                  if size < inode.Inode.size then begin
                    let inode = shrink_blocks t inode ~keep in
                    (if size mod Layout.block_size <> 0 then
                       let idx = size / Layout.block_size in
                       let phys = get_block t inode idx in
                       if phys <> 0 then
                         Bytes.fill
                           (writable t phys (bget t phys) ~route:`Data)
                           (size mod Layout.block_size)
                           (Layout.block_size - (size mod Layout.block_size))
                           '\000');
                    inode
                  end
                  else inode
                in
                store_inode t ino { inode with Inode.size = size; mtime = time; ctime = time };
                finish_mutation t;
                Ok ()))

let link t src dst =
  guard (fun () ->
      if src = [] || dst = [] then Error Errno.EINVAL
      else
        match resolve_parent t src with
        | Error e -> Error e
        | Ok (spino, spinode, sname) -> (
            match dir_child t ~dino:spino spinode sname with
            | None -> Error Errno.ENOENT
            | Some (sino, skind) -> (
                if skind = Types.Directory then Error Errno.EISDIR
                else
                  match resolve_parent t dst with
                  | Error e -> Error e
                  | Ok (dpino, dpinode, dname) -> (
                      match dir_child t ~dino:dpino dpinode dname with
                      | Some _ -> Error Errno.EEXIST
                      | None -> (
                          let time = tick t in
                          match
                            dir_insert t dpinode ~dino:dpino ~name:dname ~ino:sino
                              ~kind_code:(Types.kind_code skind)
                          with
                          | Error e ->
                              t.time <- Int64.sub t.time 1L;
                              Error e
                          | Ok dpinode ->
                              store_inode t dpino { dpinode with Inode.mtime = time; ctime = time };
                              let sinode = load_inode t sino in
                              store_inode t sino
                                { sinode with Inode.nlink = sinode.Inode.nlink + 1; ctime = time };
                              finish_mutation t;
                              Ok ())))))

let readlink t path =
  guard (fun () ->
      match resolve t path ~follow_last:false with
      | Error e -> Error e
      | Ok ino ->
          let inode = load_inode t ino in
          if inode.Inode.kind <> Types.Symlink then Error Errno.EINVAL
          else Ok (read_range t inode ~off:0 ~len:inode.Inode.size))

let chmod t path ~mode =
  guard (fun () ->
      if not (mode_ok mode) then Error Errno.EINVAL
      else
        match resolve t path ~follow_last:true with
        | Error e -> Error e
        | Ok ino ->
            let time = tick t in
            let inode = load_inode t ino in
            store_inode t ino { inode with Inode.mode = mode; ctime = time };
            finish_mutation t;
            Ok ())

let fsync t fd =
  guard (fun () ->
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some _ ->
          commit t;
          Ok ())

let sync t =
  guard (fun () ->
      commit t;
      Ok ())

module Self = struct
  type nonrec t = t

  let create = create
  let mkdir = mkdir
  let unlink = unlink
  let rmdir = rmdir
  let openf = openf
  let close = close
  let pread = pread
  let pwrite = pwrite
  let lookup = lookup
  let stat = stat
  let fstat = fstat
  let readdir = readdir
  let rename = rename
  let truncate = truncate
  let link = link
  let symlink = symlink
  let readlink = readlink
  let chmod = chmod
  let fsync = fsync
  let sync = sync
end

module D = Fs_intf.Dispatch (Self)

(* ---- injected-bug application ---- *)

let apply_corruption t (spec : Bug_registry.spec) consequence op =
  match (consequence : Bug_registry.consequence) with
  | Bug_registry.Panic ->
      raise (Detector.Base_bug { bug = spec.Bug_registry.id; msg = spec.Bug_registry.modeled_after })
  | Bug_registry.Hang ->
      raise (Detector.Hang { bug = spec.Bug_registry.id; msg = spec.Bug_registry.modeled_after })
  | Bug_registry.Warn ->
      Detector.warn t.det ~bug:spec.Bug_registry.id spec.Bug_registry.modeled_after
  | Bug_registry.Corrupt_freecount ->
      t.sb <- { t.sb with Superblock.free_blocks = t.sb.Superblock.free_blocks + 7 }
  | Bug_registry.Corrupt_dirent -> (
      (* Scribble a rec_len in the root directory's first block — in the
         cache and the running transaction, exactly where an in-memory
         kernel bug would hit. *)
      match load_inode t Types.root_ino with
      | root ->
          let phys = get_block t root 0 in
          if phys <> 0 then
            Rae_util.Codec.set_u16 (writable t phys (bget t phys) ~route:(`Meta K_dir)) 4 0)
  | Bug_registry.Corrupt_inode_size -> (
      (* Oversize the inode behind the op's fd (or the root as fallback). *)
      let target =
        match op with
        | Op.Pwrite (fd, _, _) | Op.Pread (fd, _, _) | Op.Fstat fd -> (
            match Hashtbl.find_opt t.fds fd with Some { fino; _ } -> Some fino | None -> None)
        | _ -> None
      in
      match target with
      | None -> ()
      | Some ino ->
          let inode = load_inode t ino in
          store_inode t ino { inode with Inode.size = Layout.max_file_size + 1 })
  | Bug_registry.Wrong_result -> ()

let exec t op =
  t.s_ops <- t.s_ops + 1;
  let fired = Bug_registry.fire t.bug_reg op in
  (match fired with
  | Some (spec, consequence) ->
      (* The registry trigger is the ground truth a postmortem wants next
         to the recovery it caused; spec ids are catalog literals, so the
         recorder write stays allocation-free. *)
      (match t.events with
      | Some ev -> Rae_obs.Events.record_bug_fired ev ~id:spec.Bug_registry.id
      | None -> ());
      apply_corruption t spec consequence op
  | None -> ());
  let outcome =
    try D.exec t op
    with Invalid_argument msg ->
      (* A wild pointer dereference: the trusting base walked garbage. *)
      raise (Detector.Base_bug { bug = "wild-pointer"; msg })
  in
  match fired with
  | Some (spec, Bug_registry.Wrong_result) -> (
      match outcome with
      | Ok (Op.St st) ->
          ignore spec;
          Ok (Op.St { st with Types.st_size = st.Types.st_size + 1 })
      | other -> other)
  | Some _ | None -> outcome

(* ---- unmount / reboot / download ---- *)

let unmount t =
  try
    commit t;
    t.sb <- { t.sb with Superblock.state = Superblock.Clean };
    flush_sb t;
    commit t;
    Ok ()
  with
  | Detector.Validation_failed { context; msg } -> Error (context ^ ": " ^ msg)
  | Device.Io_error msg -> Error msg

let contained_reboot t =
  (* Discard everything volatile: nothing in memory is trusted. *)
  Journal.abort t.journal t.txn;
  Hashtbl.reset t.txn_kinds;
  Hashtbl.reset t.dirty_data;
  t.sb_dirty <- false;
  Array.fill t.bm_dirty 0 (Array.length t.bm_dirty) false;
  t.bm_ndirty <- 0;
  bc_clear t.bcache;
  IC.clear t.icache;
  Rae_cache.Dentry.clear t.dcache;
  Hashtbl.reset t.fds;
  Hashtbl.reset t.orphans;
  Detector.clear t.det;
  t.mq <- Blkmq.create t.dev;
  (match t.tracer with Some tr -> Blkmq.set_tracer t.mq tr | None -> ());
  (* Recover the trusted on-disk state S0. *)
  let replay () =
    match t.tracer with
    | Some tr ->
        Rae_obs.Tracer.with_span tr ~cat:"recovery" "journal.replay" (fun () ->
            Journal.replay t.dev t.geo)
    | None -> Journal.replay t.dev t.geo
  in
  match replay () with
  | Error msg -> Error ("journal replay: " ^ msg)
  | Ok _ -> (
      match Superblock.decode (Device.read t.dev 0) with
      | Error e -> Error ("superblock: " ^ Superblock.error_to_string e)
      | Ok sb -> (
          let read_region start len = List.init len (fun i -> Device.read t.dev (start + i)) in
          let ibm =
            Bitmap.of_blocks_lenient
              (read_region t.geo.Layout.inode_bitmap_start t.geo.Layout.inode_bitmap_len)
              ~nbits:(t.geo.Layout.ninodes + 1)
          in
          let bbm =
            Bitmap.of_blocks_lenient
              (read_region t.geo.Layout.block_bitmap_start t.geo.Layout.block_bitmap_len)
              ~nbits:t.geo.Layout.nblocks
          in
          match (ibm, bbm) with
          | Error msg, _ | _, Error msg -> Error ("bitmaps: " ^ msg)
          | Ok ibm, Ok bbm -> (
              match Journal.attach t.dev t.geo with
              | Error msg -> Error ("journal: " ^ msg)
              | Ok journal ->
                  t.journal <- journal;
                  t.sb <- sb;
                  t.ibm <- ibm;
                  t.bbm <- bbm;
                  t.time <- sb.Superblock.fs_time;
                  t.txn <- Journal.begin_txn journal;
                  t.ops_since_commit <- 0;
                  Ok ())))

let region_of t blk =
  let g = t.geo in
  if blk = 0 then `Sb
  else if blk >= g.Layout.journal_start && blk < g.Layout.journal_start + g.Layout.journal_len then
    `Journal
  else if
    blk >= g.Layout.inode_bitmap_start && blk < g.Layout.inode_bitmap_start + g.Layout.inode_bitmap_len
  then `Ibmap
  else if
    blk >= g.Layout.block_bitmap_start && blk < g.Layout.block_bitmap_start + g.Layout.block_bitmap_len
  then `Bbmap
  else if
    blk >= g.Layout.inode_table_start && blk < g.Layout.inode_table_start + g.Layout.inode_table_len
  then `Itable
  else `Data

let download_metadata t ~blocks ~fd_table ~time =
  try
    (* Route every block through the same classification the base uses for
       its own structures; everything lands dirty in the running txn. *)
    let ibmap_updates = ref [] and bbmap_updates = ref [] in
    List.iter
      (fun (blk, data) ->
        match region_of t blk with
        | `Journal -> Detector.bug_fail ~bug:"download" "shadow produced a journal block %d" blk
        | `Sb -> (
            match Superblock.decode data with
            | Error e ->
                Detector.bug_fail ~bug:"download" "shadow superblock invalid: %s"
                  (Superblock.error_to_string e)
            | Ok sb ->
                t.sb <- sb;
                bput_meta t 0 data ~kind:K_sb)
        | `Ibmap ->
            ibmap_updates := (blk, data) :: !ibmap_updates;
            bput_meta t blk data ~kind:K_bitmap
        | `Bbmap ->
            bbmap_updates := (blk, data) :: !bbmap_updates;
            bput_meta t blk data ~kind:K_bitmap
        | `Itable ->
            (* Invalidate the covered icache slots; reload lazily. *)
            let base_ino = ((blk - t.geo.Layout.inode_table_start) * Layout.inodes_per_block) + 1 in
            for slot = 0 to Layout.inodes_per_block - 1 do
              IC.remove t.icache (base_ino + slot)
            done;
            bput_meta t blk data ~kind:K_itable
        | `Data ->
            (* Dir, indirect or file data: journal it wholesale; the kinds
               are unknown here so skip structural validation (the shadow
               already verified them). *)
            bc_put t.bcache blk data;
            bc_pin t.bcache blk;
            Journal.txn_write t.txn blk data;
            if Journal.txn_block_count t.txn > txn_soft_limit t then begin
              (* Chunk very large recoveries across several transactions. *)
              Hashtbl.iter (fun b _ -> bc_unpin t.bcache b) t.txn_kinds;
              Journal.commit t.journal t.txn;
              Hashtbl.reset t.txn_kinds;
              t.txn <- Journal.begin_txn t.journal;
              t.s_commits <- t.s_commits + 1
            end)
      blocks;
    (* Rebuild the in-memory bitmaps with the new content overlaid. *)
    let rebuild which updates =
      if updates <> [] then begin
        let start, len, nbits =
          match which with
          | `Inode ->
              (t.geo.Layout.inode_bitmap_start, t.geo.Layout.inode_bitmap_len, t.geo.Layout.ninodes + 1)
          | `Block -> (t.geo.Layout.block_bitmap_start, t.geo.Layout.block_bitmap_len, t.geo.Layout.nblocks)
        in
        let current =
          Bitmap.to_blocks (match which with `Inode -> t.ibm | `Block -> t.bbm)
            ~block_size:Layout.block_size
        in
        let merged =
          List.mapi
            (fun i b -> match List.assoc_opt (start + i) updates with Some d -> d | None -> b)
            (List.filteri (fun i _ -> i < len) current)
        in
        match Bitmap.of_blocks_lenient merged ~nbits with
        | Ok bm -> ( match which with `Inode -> t.ibm <- bm | `Block -> t.bbm <- bm)
        | Error msg -> Detector.bug_fail ~bug:"download" "shadow bitmap unreadable: %s" msg
      end
    in
    rebuild `Inode !ibmap_updates;
    rebuild `Block !bbmap_updates;
    (* Adopt the reconstructed descriptor table and orphan census. *)
    Hashtbl.reset t.fds;
    Hashtbl.reset t.orphans;
    List.iter
      (fun (fd, ino, flags) ->
        Hashtbl.replace t.fds fd { fino = ino; fflags = flags };
        let inode = load_inode t ino in
        if inode.Inode.nlink = 0 then Hashtbl.replace t.orphans ino ())
      fd_table;
    t.time <- time;
    flush_sb t;
    (* Make the recovered state durable immediately. *)
    commit t;
    Ok ()
  with
  | Detector.Base_bug { bug; msg } -> Error (bug ^ ": " ^ msg)
  | Detector.Validation_failed { context; msg } -> Error (context ^ ": " ^ msg)
  | Device.Io_error msg -> Error msg

(* ---- introspection ---- *)

let stats t =
  {
    ops_executed = t.s_ops;
    commits = t.s_commits;
    validations = t.s_validations;
    bugs_fired = Bug_registry.fired_count t.bug_reg;
  }

let detector t = t.det
let bugs t = t.bug_reg
let time t = t.time
let set_time t v = t.time <- v

let fd_table t =
  Hashtbl.fold (fun fd { fino; fflags } acc -> (fd, fino, fflags) :: acc) t.fds []
  |> List.sort compare

let fd_count t = Hashtbl.length t.fds
let fd_iter t f = Hashtbl.iter (fun fd { fino; fflags } -> f fd fino fflags) t.fds

let fd_lookup t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some { fino; fflags } -> Some (fino, fflags)
  | None -> None

let bcache_stats t = bc_stats t.bcache
let dcache_stats t = Rae_cache.Dentry.stats t.dcache
let icache_stats t = IC.stats t.icache
let journal_stats t = Journal.stats t.journal
let mq_stats t = Blkmq.stats t.mq

let set_tracer t tr =
  t.tracer <- Some tr;
  Blkmq.set_tracer t.mq tr

let set_events t ev = t.events <- Some ev

let register_obs reg t =
  let module M = Rae_obs.Metrics in
  M.register_counter reg ~help:"VFS operations executed by the base"
    ~reset:(fun () -> t.s_ops <- 0)
    "base_ops_total"
    (fun () -> t.s_ops);
  M.register_counter reg ~help:"group commits"
    ~reset:(fun () -> t.s_commits <- 0)
    "base_commits_total"
    (fun () -> t.s_commits);
  M.register_counter reg ~help:"commit-time validation passes"
    ~reset:(fun () -> t.s_validations <- 0)
    "base_validations_total"
    (fun () -> t.s_validations);
  M.register_counter reg ~help:"injected bugs fired" "base_bugs_fired_total" (fun () ->
      Bug_registry.fired_count t.bug_reg);
  M.register_counter reg ~help:"detector warnings (non-fatal)" "detector_warnings_total" (fun () ->
      Detector.warn_count t.det);
  M.register_gauge reg ~help:"operations since the last commit" "base_ops_since_commit" (fun () ->
      float_of_int t.ops_since_commit);
  M.register_gauge reg ~help:"open file descriptors" "base_open_fds" (fun () ->
      float_of_int (Hashtbl.length t.fds));
  M.register_gauge reg ~help:"orphaned inodes awaiting reap" "base_orphans" (fun () ->
      float_of_int (Hashtbl.length t.orphans));
  (* Caches: the containers live for the mount, so closing over [t] and
     sampling through the accessors stays correct across contained reboots. *)
  Rae_cache.Lru.register_stats reg ~prefix:"bcache"
    ~reset:(fun () -> bc_reset_stats t.bcache)
    (fun () -> bc_stats t.bcache);
  Rae_cache.Lru.register_stats reg ~prefix:"icache"
    ~reset:(fun () -> IC.reset_stats t.icache)
    (fun () -> IC.stats t.icache);
  Rae_cache.Lru.register_stats reg ~prefix:"dcache"
    ~reset:(fun () -> Rae_cache.Dentry.reset_stats t.dcache)
    (fun () -> Rae_cache.Dentry.stats t.dcache);
  (* Journal and queue layer are replaced by contained reboot: register
     through getters so samples always read the live instance. *)
  Journal.register_obs reg (fun () -> t.journal);
  Blkmq.register_obs reg (fun () -> t.mq)
