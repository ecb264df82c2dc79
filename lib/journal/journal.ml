open Rae_util
module Device = Rae_block.Device
module Itbl = Rae_util.Tbl.Int
module Layout = Rae_format.Layout

let jmagic = 0x4C4E524AL (* "JRNL" little-endian *)

(* Journal block types. *)
let bt_superblock = 4
let bt_descriptor = 1
let bt_commit = 2

(* Tag flags. *)
let flag_escaped = 1

type stats = {
  commits : int;
  blocks_logged : int;
  escapes : int;
  revokes : int;
  tail_resets : int;
}

exception Journal_full of { needed : int; capacity : int }

type t = {
  dev : Device.t;
  geo : Layout.geometry;
  scratch : bytes;
      (* the descriptor, commit and journal-superblock blocks are encoded
         here, one at a time: [Device.write] copies, so each write frees it
         for the next *)
  mutable tail_seq : int64;
  mutable tail_ptr : int;  (* absolute block number of the next append *)
  mutable s_commits : int;
  mutable s_blocks_logged : int;
  mutable s_escapes : int;
  mutable s_revokes : int;
  mutable s_tail_resets : int;
}

(* A transaction buffers writes in first-write order with an int-table
   index from home block to slot, so the supersede-on-rewrite rule and
   revoke dedup are O(1) instead of the O(n) list filter/membership walks
   the write path used to pay per buffered block. *)
type txn = {
  mutable w_slots : (int * bytes) array;  (* (home, image), first-write order *)
  mutable w_len : int;
  w_index : int Itbl.t;  (* home block -> slot in w_slots *)
  r_index : unit Itbl.t;  (* revoked homes, for O(1) dedup *)
  mutable r_rev : int list;  (* revoked homes, newest first *)
}

let txn_slot txn i = txn.w_slots.(i)

let txn_push txn home data =
  if txn.w_len = Array.length txn.w_slots then begin
    let grown = Array.make (max 8 (2 * txn.w_len)) (home, data) in
    Array.blit txn.w_slots 0 grown 0 txn.w_len;
    txn.w_slots <- grown
  end;
  txn.w_slots.(txn.w_len) <- (home, data);
  Itbl.replace txn.w_index home txn.w_len;
  txn.w_len <- txn.w_len + 1

let txn_reset txn =
  txn.w_len <- 0;
  txn.w_slots <- [||];
  Itbl.reset txn.w_index;
  Itbl.reset txn.r_index;
  txn.r_rev <- []

let txn_revoked txn = List.rev txn.r_rev

let region_start g = g.Layout.journal_start
let region_end g = g.Layout.journal_start + g.Layout.journal_len

(* ---- block encoding ---- *)

(* Every encoder below overwrites all of [b], so it can be a reused
   buffer. *)
let header b ~btype ~seq =
  Bytes.fill b 0 Layout.block_size '\000';
  Codec.set_u32 b 0 jmagic;
  Codec.set_u32_int b 4 btype;
  Codec.set_u64 b 8 seq

let parse_header b =
  if not (Int64.equal (Codec.get_u32 b 0) jmagic) then None
  else Some (Codec.get_u32_int b 4, Codec.get_u64 b 8)

let encode_jsb b ~tail_seq ~tail_ptr =
  header b ~btype:bt_superblock ~seq:0L;
  Codec.set_u64 b 16 tail_seq;
  Codec.set_u32_int b 24 tail_ptr;
  Codec.set_i32 b 4092 (Checksum.crc32c b ~pos:0 ~len:4092);
  b

let decode_jsb b =
  match parse_header b with
  | Some (btype, _) when btype = bt_superblock ->
      if Checksum.verify b ~pos:0 ~len:4092 ~expect:(Codec.get_i32 b 4092) then
        Some (Codec.get_u64 b 16, Codec.get_u32_int b 24)
      else None
  | Some _ | None -> None

(* Descriptor: count at 16, tags (home u32, flags u32, revoked-home list
   afterwards) from 20.  Revokes ride in the descriptor: count_revokes at
   20 + 8*count. *)
let max_tags = (Layout.block_size - 24) / 8 - 16 (* leave room for a few revokes *)

let encode_descriptor b ~seq ~tags ~revokes =
  header b ~btype:bt_descriptor ~seq;
  Codec.set_u32_int b 16 (List.length tags);
  List.iteri
    (fun i (home, flags) ->
      Codec.set_u32_int b (20 + (8 * i)) home;
      Codec.set_u32_int b (24 + (8 * i)) flags)
    tags;
  let rev_off = 20 + (8 * List.length tags) in
  Codec.set_u32_int b rev_off (List.length revokes);
  List.iteri (fun i home -> Codec.set_u32_int b (rev_off + 4 + (4 * i)) home) revokes;
  b

let decode_descriptor b =
  let count = Codec.get_u32_int b 16 in
  if count < 0 || count > (Layout.block_size - 24) / 8 then None
  else
    let tags = List.init count (fun i -> (Codec.get_u32_int b (20 + (8 * i)), Codec.get_u32_int b (24 + (8 * i)))) in
    let rev_off = 20 + (8 * count) in
    if rev_off + 4 > Layout.block_size then None
    else
      let nrev = Codec.get_u32_int b rev_off in
      if nrev < 0 || rev_off + 4 + (4 * nrev) > Layout.block_size then None
      else
        let revokes = List.init nrev (fun i -> Codec.get_u32_int b (rev_off + 4 + (4 * i))) in
        Some (tags, revokes)

let encode_commit b ~seq ~count ~data_csum =
  header b ~btype:bt_commit ~seq;
  Codec.set_u32_int b 16 count;
  Codec.set_i32 b 20 data_csum;
  b

let decode_commit b = (Codec.get_u32_int b 16, Codec.get_i32 b 20)

(* ---- lifecycle ---- *)

let format dev geo =
  if geo.Layout.journal_len < 4 then invalid_arg "Journal.format: journal region too small";
  Device.write dev (region_start geo)
    (encode_jsb (Bytes.create Layout.block_size) ~tail_seq:1L ~tail_ptr:(region_start geo + 1));
  Device.flush dev

let attach ?carry dev geo =
  let count f = match carry with Some j -> f j | None -> 0 in
  match decode_jsb (Device.read dev (region_start geo)) with
  | Some (tail_seq, tail_ptr) ->
      if tail_ptr <= region_start geo || tail_ptr > region_end geo then
        Error (Printf.sprintf "journal superblock tail pointer %d out of region" tail_ptr)
      else
        Ok
          {
            dev;
            geo;
            scratch = Bytes.create Layout.block_size;
            tail_seq;
            tail_ptr;
            s_commits = count (fun j -> j.s_commits);
            s_blocks_logged = count (fun j -> j.s_blocks_logged);
            s_escapes = count (fun j -> j.s_escapes);
            s_revokes = count (fun j -> j.s_revokes);
            s_tail_resets = count (fun j -> j.s_tail_resets);
          }
  | None -> Error "journal superblock unreadable (not formatted or corrupt)"

let begin_txn t =
  ignore t;
  {
    w_slots = [||];
    w_len = 0;
    w_index = Itbl.create 32;
    r_index = Itbl.create 8;
    r_rev = [];
  }

(* The transaction takes ownership of [data]: no copy is made, so the
   caller's later in-place writes to the same buffer are what commits.
   Re-journaling a block cancels its revoke in this transaction (jbd2's
   [jbd2_journal_cancel_revoke]): replay suppresses a write when its block
   is revoked at the same or a later seq, so a kept revoke would drop the
   new image.  Only this transaction's revoke needs cancelling, because
   synchronous checkpointing keeps every replay window to one
   transaction. *)
let txn_write txn blk data =
  if Bytes.length data <> Layout.block_size then invalid_arg "Journal.txn_write: not a full block";
  if Itbl.mem txn.r_index blk then begin
    Itbl.remove txn.r_index blk;
    txn.r_rev <- List.filter (fun b -> b <> blk) txn.r_rev
  end;
  (* Supersede an earlier buffered write to the same block: overwrite the
     slot in place, preserving first-write order. *)
  match Itbl.find_opt txn.w_index blk with
  | Some slot -> txn.w_slots.(slot) <- (blk, data)
  | None -> txn_push txn blk data

(* Drop [blk]'s buffered write, closing the gap so first-write order
   holds for the rest. *)
let txn_forget txn blk =
  match Itbl.find_opt txn.w_index blk with
  | None -> ()
  | Some slot ->
      Itbl.remove txn.w_index blk;
      for i = slot + 1 to txn.w_len - 1 do
        let ((home, _) as w) = txn.w_slots.(i) in
        txn.w_slots.(i - 1) <- w;
        Itbl.replace txn.w_index home (i - 1)
      done;
      txn.w_len <- txn.w_len - 1;
      txn.w_slots.(txn.w_len) <- (0, Bytes.empty)

let txn_revoke txn blk =
  if not (Itbl.mem txn.r_index blk) then begin
    Itbl.replace txn.r_index blk ();
    txn.r_rev <- blk :: txn.r_rev
  end

let txn_block_count txn = txn.w_len
let txn_writes txn = List.init txn.w_len (fun i ->
    let blk, data = txn_slot txn i in
    (blk, Bytes.copy data))

let txn_iter txn f =
  for i = 0 to txn.w_len - 1 do
    let blk, data = txn_slot txn i in
    f blk data
  done

let escape_if_needed t data =
  if Int64.equal (Codec.get_u32 data 0) jmagic then begin
    t.s_escapes <- t.s_escapes + 1;
    let copy = Bytes.copy data in
    Codec.set_u32 copy 0 0L;
    (copy, flag_escaped)
  end
  else (data, 0)

let write_jsb t =
  Device.write t.dev (region_start t.geo)
    (encode_jsb t.scratch ~tail_seq:t.tail_seq ~tail_ptr:t.tail_ptr)

let commit t txn =
  if txn.w_len = 0 && txn.r_rev = [] then ()
  else begin
    let n = txn.w_len in
    if n > max_tags then raise (Journal_full { needed = n; capacity = max_tags });
    let needed = n + 2 in
    let capacity = region_end t.geo - (region_start t.geo + 1) in
    if needed > capacity then raise (Journal_full { needed; capacity });
    (* All prior transactions are checkpointed (synchronous journaling), so
       wrapping is a simple tail reset. *)
    if t.tail_ptr + needed > region_end t.geo then begin
      t.tail_ptr <- region_start t.geo + 1;
      t.s_tail_resets <- t.s_tail_resets + 1;
      write_jsb t;
      Device.flush t.dev
    end;
    let seq = t.tail_seq in
    (* Bound the revoke records to what fits in the descriptor after the
       tags.  Dropping overflow revokes is safe here: with synchronous
       checkpointing the replay window never spans more than one
       transaction, so cross-transaction revocation can only matter when a
       journal superblock update was itself lost — and within a single
       transaction the write-supersede rule already prevents stale
       replays.  (The descriptor keeps as many as fit for the benefit of
       pathological-tail recovery.) *)
    let max_revokes = (Layout.block_size - 20 - (8 * n) - 4) / 4 in
    let revokes = List.filteri (fun i _ -> i < max_revokes) (txn_revoked txn) in
    let escaped =
      List.init n (fun i ->
          let home, data = txn_slot txn i in
          let journal_copy, flags = escape_if_needed t data in
          (home, flags, data, journal_copy))
    in
    let tags = List.map (fun (home, flags, _, _) -> (home, flags)) escaped in
    (* Checksum over the journal copies, in tag order. *)
    let csum =
      List.fold_left
        (fun acc (_, _, _, jcopy) -> Checksum.crc32c ~init:acc jcopy ~pos:0 ~len:(Bytes.length jcopy))
        0l escaped
    in
    (* 1. Journal writes. *)
    Device.write t.dev t.tail_ptr (encode_descriptor t.scratch ~seq ~tags ~revokes);
    List.iteri (fun i (_, _, _, jcopy) -> Device.write t.dev (t.tail_ptr + 1 + i) jcopy) escaped;
    Device.write t.dev (t.tail_ptr + 1 + n) (encode_commit t.scratch ~seq ~count:n ~data_csum:csum);
    Device.flush t.dev;
    (* 2. Checkpoint: home-location writes. *)
    List.iter (fun (home, _, data, _) -> Device.write t.dev home data) escaped;
    Device.flush t.dev;
    (* 3. Advance the tail. *)
    t.tail_ptr <- t.tail_ptr + needed;
    t.tail_seq <- Int64.add t.tail_seq 1L;
    write_jsb t;
    Device.flush t.dev;
    t.s_commits <- t.s_commits + 1;
    t.s_blocks_logged <- t.s_blocks_logged + n;
    t.s_revokes <- t.s_revokes + List.length revokes;
    txn_reset txn
  end

let abort _t txn = txn_reset txn
let commit_seq t = t.tail_seq

(* ---- replay ---- *)

type replay_txn = { r_seq : int64; r_writes : (int * int * bytes) list; r_revokes : int list }

let scan_transactions dev geo ~tail_seq ~tail_ptr =
  let rec go ptr seq acc =
    if ptr + 2 > region_end geo then List.rev acc
    else
      let blk = Device.read dev ptr in
      match parse_header blk with
      | Some (btype, bseq) when btype = bt_descriptor && Int64.equal bseq seq -> (
          match decode_descriptor blk with
          | None -> List.rev acc
          | Some (tags, revokes) ->
              let n = List.length tags in
              if ptr + 1 + n + 1 > region_end geo then List.rev acc
              else
                let datas = List.mapi (fun i (home, flags) -> (home, flags, Device.read dev (ptr + 1 + i))) tags in
                let commit_blk = Device.read dev (ptr + 1 + n) in
                (match parse_header commit_blk with
                | Some (cbtype, cseq) when cbtype = bt_commit && Int64.equal cseq seq ->
                    let count, expect_csum = decode_commit commit_blk in
                    let csum =
                      List.fold_left
                        (fun acc (_, _, data) ->
                          Checksum.crc32c ~init:acc data ~pos:0 ~len:(Bytes.length data))
                        0l datas
                    in
                    if count = n && Int32.equal csum expect_csum then
                      go (ptr + n + 2) (Int64.add seq 1L)
                        ({ r_seq = seq; r_writes = datas; r_revokes = revokes } :: acc)
                    else List.rev acc
                | Some _ | None -> List.rev acc)
          )
      | Some _ | None -> List.rev acc
  in
  go tail_ptr tail_seq []

let unescape flags data =
  if flags land flag_escaped <> 0 then begin
    let d = Bytes.copy data in
    Codec.set_u32 d 0 jmagic;
    d
  end
  else data

let destage dev txns ~suppressed =
  List.iter
    (fun txn ->
      List.iter
        (fun (home, flags, data) ->
          if not (suppressed home txn.r_seq) then Device.write dev home (unescape flags data))
        txn.r_writes)
    txns

let replay dev geo =
  match decode_jsb (Device.read dev (region_start geo)) with
  | None -> Error "journal superblock unreadable; cannot replay"
  | Some (tail_seq, tail_ptr) ->
      if tail_ptr <= region_start geo || tail_ptr > region_end geo then
        Error "journal tail pointer out of region"
      else begin
        let txns = scan_transactions dev geo ~tail_seq ~tail_ptr in
        (* Revocation: a write in txn s to block b is suppressed when b is
           revoked in any txn with seq >= s. *)
        let revoked_at =
          List.concat_map (fun txn -> List.map (fun b -> (b, txn.r_seq)) txn.r_revokes) txns
        in
        let suppressed home seq =
          List.exists (fun (b, s) -> b = home && Int64.compare s seq >= 0) revoked_at
        in
        destage dev txns ~suppressed;
        Device.flush dev;
        (match txns with
        | [] -> ()
        | first :: rest ->
            let last = List.fold_left (fun _ txn -> txn) first rest in
            let consumed =
              List.fold_left (fun acc txn -> acc + List.length txn.r_writes + 2) 0 txns
            in
            Device.write dev (region_start geo)
              (encode_jsb (Bytes.create Layout.block_size) ~tail_seq:(Int64.add last.r_seq 1L)
                 ~tail_ptr:(tail_ptr + consumed));
            Device.flush dev);
        Ok (List.length txns)
      end

let stats t =
  {
    commits = t.s_commits;
    blocks_logged = t.s_blocks_logged;
    escapes = t.s_escapes;
    revokes = t.s_revokes;
    tail_resets = t.s_tail_resets;
  }

let pp_stats ppf s =
  Format.fprintf ppf "journal { commits=%d; blocks=%d; escapes=%d; revokes=%d; tail_resets=%d }"
    s.commits s.blocks_logged s.escapes s.revokes s.tail_resets

let register_obs reg ?(prefix = "journal") get =
  let c name help sample =
    Rae_obs.Metrics.register_counter reg ~help (prefix ^ "_" ^ name) (fun () -> sample (get ()))
  in
  c "commits_total" "transactions committed" (fun t -> t.s_commits);
  c "blocks_logged_total" "metadata blocks written to the log" (fun t -> t.s_blocks_logged);
  c "escapes_total" "magic-collision blocks escaped" (fun t -> t.s_escapes);
  c "revokes_total" "revoke records written" (fun t -> t.s_revokes);
  c "tail_resets_total" "checkpoints advancing the log tail" (fun t -> t.s_tail_resets)
