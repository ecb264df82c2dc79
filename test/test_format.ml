(* Tests for rae_format: layout, superblock, bitmap, inode, dirent, mkfs,
   reader. *)

open Rae_format
module Types = Rae_vfs.Types

let bs = Layout.block_size

(* Minor words [f] allocates, net of the measurement's own. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let minor_words_per_call ~calls f =
  let idle = minor_words (fun () -> ()) in
  (minor_words (fun () -> for _ = 1 to calls do f () done) -. idle) /. float_of_int calls

let geo ?(nblocks = 256) ?(ninodes = 64) () =
  match Layout.compute ~nblocks ~ninodes () with
  | Ok g -> g
  | Error msg -> Alcotest.failf "layout: %s" msg

(* ---- Layout ---- *)

let test_layout_regions_ordered () =
  let g = geo () in
  Alcotest.(check bool) "ordered" true
    (g.Layout.journal_start = 1
    && g.Layout.inode_bitmap_start = g.Layout.journal_start + g.Layout.journal_len
    && g.Layout.block_bitmap_start = g.Layout.inode_bitmap_start + g.Layout.inode_bitmap_len
    && g.Layout.inode_table_start = g.Layout.block_bitmap_start + g.Layout.block_bitmap_len
    && g.Layout.data_start = g.Layout.inode_table_start + g.Layout.inode_table_len
    && g.Layout.data_start < g.Layout.nblocks)

let test_layout_too_small () =
  match Layout.compute ~nblocks:32 ~ninodes:16 () with
  | Error _ -> ()
  | Ok g -> Alcotest.failf "expected failure, got %a" Layout.pp_geometry g

let test_layout_inode_location () =
  let g = geo () in
  let blk1, off1 = Layout.inode_location g 1 in
  Alcotest.(check (pair int int)) "inode 1" (g.Layout.inode_table_start, 0) (blk1, off1);
  let blk17, off17 = Layout.inode_location g 17 in
  Alcotest.(check (pair int int)) "inode 17 in second block"
    (g.Layout.inode_table_start + 1, 0)
    (blk17, off17);
  (try ignore (Layout.inode_location g 0); Alcotest.fail "ino 0" with Invalid_argument _ -> ());
  try ignore (Layout.inode_location g 65); Alcotest.fail "ino > ninodes"
  with Invalid_argument _ -> ()

let test_layout_max_file () =
  Alcotest.(check int) "addressable blocks" (12 + 1024 + (1024 * 1024)) Layout.max_file_blocks

(* ---- Superblock ---- *)

let mk_sb () = Superblock.make (geo ()) ~free_blocks:10 ~free_inodes:20

let test_sb_roundtrip () =
  let sb = mk_sb () in
  (match Superblock.decode (Superblock.encode sb) with
  | Ok sb' -> Alcotest.(check bool) "equal" true (sb = sb')
  | Error e -> Alcotest.failf "decode: %a" Superblock.pp_error e);
  (* Encoding into a used buffer overwrites all of it. *)
  let b = Bytes.make bs '\x5a' in
  Superblock.encode_into sb b;
  Alcotest.(check bool) "encode_into == encode" true (Bytes.equal b (Superblock.encode sb))

let test_sb_bad_magic () =
  let b = Superblock.encode (mk_sb ()) in
  Bytes.set b 0 'X';
  match Superblock.decode b with
  | Error (Superblock.Bad_magic _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Superblock.pp_error e
  | Ok _ -> Alcotest.fail "decoded corrupt superblock"

let test_sb_bad_checksum () =
  let b = Superblock.encode (mk_sb ()) in
  (* Flip a byte inside the checksummed area but outside magic/version. *)
  Bytes.set b 70 '\xff';
  match Superblock.decode b with
  | Error Superblock.Bad_checksum -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Superblock.pp_error e
  | Ok _ -> Alcotest.fail "decoded corrupt superblock"

let test_sb_crafted_geometry () =
  (* A checksum-valid superblock with impossible geometry must be rejected
     by [decode] but accepted by [decode_unchecked] — the crafted-image
     distinction. *)
  let sb = mk_sb () in
  let crafted = { sb with Superblock.geometry = { sb.Superblock.geometry with Layout.data_start = 5 } } in
  let b = Superblock.encode crafted in
  (match Superblock.decode b with
  | Error (Superblock.Bad_geometry _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Superblock.pp_error e
  | Ok _ -> Alcotest.fail "accepted crafted geometry");
  match Superblock.decode_unchecked b with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unchecked rejected: %a" Superblock.pp_error e

let test_sb_bad_counts () =
  let sb = { (mk_sb ()) with Superblock.free_blocks = 1_000_000 } in
  match Superblock.decode (Superblock.encode sb) with
  | Error (Superblock.Bad_counts _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Superblock.pp_error e
  | Ok _ -> Alcotest.fail "accepted impossible free count"

let test_sb_state () =
  let sb = Superblock.with_state (mk_sb ()) Superblock.Dirty in
  match Superblock.decode (Superblock.encode sb) with
  | Ok sb' -> Alcotest.(check string) "dirty" "dirty" (Superblock.state_to_string sb'.Superblock.state)
  | Error e -> Alcotest.failf "decode: %a" Superblock.pp_error e

(* ---- Bitmap ---- *)

let test_bitmap_basic () =
  let bm = Bitmap.create ~nbits:100 in
  Alcotest.(check int) "all free" 100 (Bitmap.count_free bm);
  Bitmap.set bm 0;
  Bitmap.set bm 99;
  Alcotest.(check bool) "bit 0" true (Bitmap.test bm 0);
  Alcotest.(check bool) "bit 99" true (Bitmap.test bm 99);
  Alcotest.(check bool) "bit 50" false (Bitmap.test bm 50);
  Alcotest.(check int) "two set" 2 (Bitmap.count_set bm);
  Bitmap.clear bm 0;
  Alcotest.(check bool) "cleared" false (Bitmap.test bm 0)

let test_bitmap_result_ops () =
  let bm = Bitmap.create ~nbits:10 in
  Alcotest.(check bool) "set ok" true (Bitmap.set_result bm 3 = Ok ());
  Alcotest.(check bool) "double set fails" true (Result.is_error (Bitmap.set_result bm 3));
  Alcotest.(check bool) "clear ok" true (Bitmap.clear_result bm 3 = Ok ());
  Alcotest.(check bool) "double clear fails" true (Result.is_error (Bitmap.clear_result bm 3));
  Alcotest.(check bool) "out of range" true (Result.is_error (Bitmap.set_result bm 10))

let test_bitmap_find_free () =
  let bm = Bitmap.create ~nbits:8 in
  Bitmap.set bm 0;
  Bitmap.set bm 1;
  Bitmap.set bm 3;
  Alcotest.(check (option int)) "first free" (Some 2) (Bitmap.find_free bm ~from:0);
  Alcotest.(check (option int)) "from 3" (Some 4) (Bitmap.find_free bm ~from:3);
  for i = 0 to 7 do Bitmap.set bm i done;
  Alcotest.(check (option int)) "full" None (Bitmap.find_free bm ~from:0)

(* The seed's bit-at-a-time scan, kept as the reference the word-level
   implementation must agree with. *)
let naive_find_free bm ~from =
  let n = Bitmap.nbits bm in
  let rec go i = if i >= n then None else if not (Bitmap.test bm i) then Some i else go (i + 1) in
  if from < 0 || from >= n then None else go from

let prop_find_free_matches_naive =
  (* Sizes straddle byte and 64-bit-word boundaries so the fast paths
     (0xFF byte skip, int64 word skip, partial first/last byte) all get
     exercised, including the fully-set and fully-clear extremes. *)
  QCheck2.Test.make ~name:"word-scan find_free == naive scan" ~count:300
    QCheck2.Gen.(
      int_range 1 700 >>= fun nbits ->
      oneof
        [
          return [];  (* empty *)
          return (List.init nbits Fun.id);  (* full *)
          list_size (int_range 0 300) (int_bound (nbits - 1));
        ]
      >>= fun sets ->
      int_range 0 (nbits - 1) >>= fun from -> return (nbits, sets, from))
    (fun (nbits, sets, from) ->
      let bm = Bitmap.create ~nbits in
      List.iter (Bitmap.set bm) sets;
      Bitmap.find_free bm ~from = naive_find_free bm ~from)

let prop_cursor_allocates_every_free_bit =
  (* Next-fit must find a free bit iff one exists in [lo, nbits): draining
     the rotor yields each free bit exactly once, wrap-around included. *)
  QCheck2.Test.make ~name:"rotor drains each free bit >= lo exactly once" ~count:300
    QCheck2.Gen.(
      int_range 1 300 >>= fun nbits ->
      list_size (int_bound 120) (int_bound (nbits - 1)) >>= fun sets ->
      int_range 0 (nbits - 1) >>= fun lo ->
      (* Pre-advance the rotor a random amount so draining starts mid-bitmap. *)
      int_bound 40 >>= fun spins -> return (nbits, sets, lo, spins))
    (fun (nbits, sets, lo, spins) ->
      let bm = Bitmap.create ~nbits in
      List.iter (Bitmap.set bm) sets;
      let expected =
        List.filter (fun i -> i >= lo && not (Bitmap.test bm i)) (List.init nbits Fun.id)
      in
      for _ = 1 to spins do
        match Bitmap.find_free_next bm ~lo with
        | Some i -> Bitmap.set bm i; Bitmap.clear bm i
        | None -> ()
      done;
      let got = ref [] in
      let rec drain () =
        match Bitmap.find_free_next bm ~lo with
        | None -> ()
        | Some i ->
            Bitmap.set bm i;
            got := i :: !got;
            drain ()
      in
      drain ();
      List.sort compare !got = expected)

let prop_counts_maintained =
  (* count_free is now a maintained field; it must stay equal to an honest
     recount through arbitrary set/clear (including redundant) sequences. *)
  QCheck2.Test.make ~name:"maintained count_free == recount" ~count:300
    QCheck2.Gen.(
      int_range 1 200 >>= fun nbits ->
      list_size (int_bound 150) (pair bool (int_bound (nbits - 1))) >>= fun ops ->
      return (nbits, ops))
    (fun (nbits, ops) ->
      let bm = Bitmap.create ~nbits in
      List.iter (fun (set, i) -> if set then Bitmap.set bm i else Bitmap.clear bm i) ops;
      let recount = ref 0 in
      for i = 0 to nbits - 1 do
        if not (Bitmap.test bm i) then incr recount
      done;
      Bitmap.count_free bm = !recount)

let test_bitmap_cursor_next_fit () =
  let bm = Bitmap.create ~nbits:100 in
  (* A fresh rotor behaves first-fit. *)
  Alcotest.(check (option int)) "first" (Some 10) (Bitmap.find_free_next bm ~lo:10);
  Bitmap.set bm 10;
  Alcotest.(check (option int)) "resumes" (Some 11) (Bitmap.find_free_next bm ~lo:10);
  Bitmap.set bm 11;
  (* A bit freed behind the rotor is not reused until the wrap. *)
  Bitmap.clear bm 10;
  Alcotest.(check (option int)) "next-fit skips freed prefix" (Some 12)
    (Bitmap.find_free_next bm ~lo:10);
  Bitmap.set bm 12;
  for i = 13 to 99 do
    Bitmap.set bm i
  done;
  Alcotest.(check (option int)) "wraps to the freed bit" (Some 10) (Bitmap.find_free_next bm ~lo:10);
  Bitmap.set bm 10;
  Alcotest.(check (option int)) "full above lo" None (Bitmap.find_free_next bm ~lo:10);
  Alcotest.(check (option int)) "still free below lo" (Some 0) (Bitmap.find_free_next bm ~lo:0)

let test_bitmap_parse_restores_count () =
  let bm = Bitmap.create ~nbits:1000 in
  List.iter (Bitmap.set bm) [ 0; 7; 8; 63; 64; 512; 999 ];
  let blocks = Bitmap.to_blocks bm ~block_size:bs in
  match Bitmap.of_blocks blocks ~nbits:1000 with
  | Ok bm' ->
      Alcotest.(check int) "count survives parse" (Bitmap.count_set bm) (Bitmap.count_set bm');
      Alcotest.(check int) "free count" (1000 - 7) (Bitmap.count_free bm')
  | Error e -> Alcotest.failf "of_blocks: %s" e

let test_bitmap_block_roundtrip () =
  let bm = Bitmap.create ~nbits:1000 in
  List.iter (Bitmap.set bm) [ 0; 1; 17; 999; 512 ];
  let blocks = Bitmap.to_blocks bm ~block_size:bs in
  Alcotest.(check int) "one block" 1 (List.length blocks);
  match Bitmap.of_blocks blocks ~nbits:1000 with
  | Ok bm' -> Alcotest.(check bool) "equal" true (Bitmap.equal bm bm')
  | Error e -> Alcotest.failf "of_blocks: %s" e

let test_bitmap_padding_strictness () =
  let bm = Bitmap.create ~nbits:9 in
  let blocks = Bitmap.to_blocks bm ~block_size:bs in
  let block = List.hd blocks in
  (* Corrupt a padding bit (bit 9..15 live in byte 1). *)
  Bytes.set block 1 '\x00';
  (match Bitmap.of_blocks [ block ] ~nbits:9 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict parse accepted bad padding");
  match Bitmap.of_blocks_lenient [ block ] ~nbits:9 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "lenient parse rejected: %s" e

(* The parse before it copied the bitmap straight out of the blocks and
   counted and checked words at a time, kept as its reference: the
   blocks flattened, the bitmap cut out, its bits counted one by one, and
   the tail checked byte by byte. *)
let reference_bitmap_parse blocks ~nbits ~strict =
  let needed = (nbits + 7) / 8 in
  let flat = Bytes.concat Bytes.empty blocks in
  if Bytes.length flat < needed then None
  else begin
    let bits = Bytes.sub flat 0 needed in
    let used = ((nbits - 1) mod 8) + 1 in
    let ok = ref true in
    if used < 8 then begin
      let v = Char.code (Bytes.get bits (needed - 1)) in
      let high = lnot ((1 lsl used) - 1) land 0xFF in
      if v land high <> high then ok := false;
      Bytes.set bits (needed - 1) (Char.chr (v land ((1 lsl used) - 1)))
    end;
    for i = needed to Bytes.length flat - 1 do
      if Bytes.get flat i <> '\xff' then ok := false
    done;
    let count = ref 0 in
    for i = 0 to nbits - 1 do
      if Char.code (Bytes.get bits (i / 8)) land (1 lsl (i mod 8)) <> 0 then incr count
    done;
    if strict && not !ok then None else Some (bits, !count)
  end

(* Random bitmap sizes over one to three blocks of random length, each
   byte all-ones, all-zeroes or random, so tails and padding bits are
   valid as often as not: the verdict, the bits and the count agree. *)
let prop_bitmap_parse_matches_reference =
  QCheck2.Test.make ~name:"Bitmap.of_blocks = byte-wise reference" ~count:1000
    QCheck2.Gen.(quad (int_range 1 20_000) (int_range 1 3) (int_range 1 4096) (pair bool int))
    (fun (nbits, nblocks, block_len, (strict, fill)) ->
      let rng = Random.State.make [| fill |] in
      let mode = Random.State.int rng 3 in
      let byte () =
        match (mode, Random.State.int rng 8) with
        | 0, _ | _, 0 -> '\xff'
        | 1, _ -> '\000'
        | _ -> Char.chr (Random.State.int rng 256)
      in
      let blocks = List.init nblocks (fun _ -> Bytes.init block_len (fun _ -> byte ())) in
      let parse = if strict then Bitmap.of_blocks else Bitmap.of_blocks_lenient in
      match (parse blocks ~nbits, reference_bitmap_parse blocks ~nbits ~strict) with
      | Error _, None -> true
      | Ok bm, Some (bits, count) ->
          let bit i = Char.code (Bytes.get bits (i / 8)) land (1 lsl (i mod 8)) <> 0 in
          Bitmap.count_set bm = count
          && Seq.for_all (fun i -> Bitmap.test bm i = bit i) (Seq.init nbits Fun.id)
      | Ok _, None | Error _, Some _ -> false)

let test_bitmap_too_few_blocks () =
  match Bitmap.of_blocks [ Bytes.make 4 '\xff' ] ~nbits:100 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted undersized bitmap"

let prop_bitmap_roundtrip =
  QCheck2.Test.make ~name:"bitmap to/of blocks roundtrip" ~count:100
    QCheck2.Gen.(pair (int_range 1 5000) (list_size (int_bound 50) (int_bound 4999)))
    (fun (nbits, sets) ->
      let bm = Bitmap.create ~nbits in
      List.iter (fun i -> if i < nbits then Bitmap.set bm i) sets;
      match Bitmap.of_blocks (Bitmap.to_blocks bm ~block_size:bs) ~nbits with
      | Ok bm' -> Bitmap.equal bm bm'
      | Error _ -> false)

let prop_encode_block_matches_to_blocks =
  (* Small block sizes put the padding byte in any block, not just the
     first. *)
  QCheck2.Test.make ~name:"encode_block i == block i of to_blocks" ~count:200
    QCheck2.Gen.(
      triple (oneofl [ 4; 8; 64; bs ]) (int_range 1 5000) (list_size (int_bound 80) (int_bound 4999)))
    (fun (block_size, nbits, sets) ->
      let bm = Bitmap.create ~nbits in
      List.iter (fun i -> if i < nbits then Bitmap.set bm i) sets;
      (* [encode_block_into] overwrites all of a used buffer. *)
      let into i =
        let out = Bytes.make block_size '\x5a' in
        Bitmap.encode_block_into bm i out;
        out
      in
      Bitmap.to_blocks bm ~block_size
      |> List.mapi (fun i b -> Bytes.equal b (Bitmap.encode_block bm ~block_size i) && Bytes.equal b (into i))
      |> List.for_all Fun.id)

(* ---- Inode ---- *)

let sample_inode () =
  {
    (Inode.empty Types.Regular ~mode:0o644 ~time:42L) with
    Inode.size = 123456;
    nlink = 2;
    direct = Array.init 12 (fun i -> if i < 4 then 100 + i else 0);
    indirect = 200;
    generation = 7;
  }

let test_inode_roundtrip () =
  let i = sample_inode () in
  let b = Bytes.make bs '\000' in
  Inode.encode i ~ino:5 b ~pos:256;
  match Inode.decode b ~pos:256 ~ino:5 with
  | Ok i' -> Alcotest.(check bool) "equal" true (Inode.equal i i')
  | Error e -> Alcotest.failf "decode: %a" Inode.pp_error e

let test_inode_checksum_seeded_by_ino () =
  (* The same bytes decoded as a different inode number must fail: catches
     inode-table blits to the wrong slot. *)
  let i = sample_inode () in
  let b = Bytes.make bs '\000' in
  Inode.encode i ~ino:5 b ~pos:0;
  match Inode.decode b ~pos:0 ~ino:6 with
  | Error (Inode.Bad_checksum _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Inode.pp_error e
  | Ok _ -> Alcotest.fail "accepted wrong-slot inode"

let test_inode_corruption_detected () =
  let i = sample_inode () in
  let b = Bytes.make bs '\000' in
  Inode.encode i ~ino:1 b ~pos:0;
  Bytes.set b 9 '\xff' (* inside size field *);
  match Inode.decode b ~pos:0 ~ino:1 with
  | Error (Inode.Bad_checksum _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Inode.pp_error e
  | Ok _ -> Alcotest.fail "accepted corrupt inode"

let test_inode_nocheck_trusts () =
  (* The base's fast path decodes without verifying — deliberately. *)
  let i = sample_inode () in
  let b = Bytes.make bs '\000' in
  Inode.encode i ~ino:1 b ~pos:0;
  Bytes.set b 250 '\x01' (* corrupt a reserved byte: checksum now wrong *);
  let i' = Inode.decode_nocheck b ~pos:0 in
  Alcotest.(check bool) "fields still parse" true (i'.Inode.size = i.Inode.size)

let test_inode_free_slot () =
  let b = Bytes.make bs '\000' in
  Alcotest.(check bool) "all-zero is free" true (Inode.is_free_slot b ~pos:0);
  Inode.encode (sample_inode ()) ~ino:2 b ~pos:0;
  Alcotest.(check bool) "encoded is not free" false (Inode.is_free_slot b ~pos:0)

let test_inode_field_validation () =
  let b = Bytes.make bs '\000' in
  (* Kind code 0 (free-slot marker) with nonzero content → Bad_kind. *)
  Rae_util.Codec.set_u16 b 4 1 (* nlink *);
  (match Inode.decode b ~pos:0 ~ino:1 with
  | Error (Inode.Bad_kind 0) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Inode.pp_error e
  | Ok _ -> Alcotest.fail "accepted kind 0");
  (* nlink = 0 is legal (orphans); an impossible size is not.  Craft a
     checksum-valid inode whose size exceeds the format maximum. *)
  let crafted = { (sample_inode ()) with Inode.size = Layout.max_file_size + 1 } in
  Inode.encode crafted ~ino:1 b ~pos:0;
  (match Inode.decode b ~pos:0 ~ino:1 with
  | Error (Inode.Bad_field _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Inode.pp_error e
  | Ok _ -> Alcotest.fail "accepted oversized file");
  (* And nlink = 0 decodes fine. *)
  let orphan = { (sample_inode ()) with Inode.nlink = 0 } in
  Inode.encode orphan ~ino:1 b ~pos:0;
  match Inode.decode b ~pos:0 ~ino:1 with
  | Ok i -> Alcotest.(check int) "orphan nlink" 0 i.Inode.nlink
  | Error e -> Alcotest.failf "orphan rejected: %a" Inode.pp_error e

let prop_inode_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* kind = oneofl [ Types.Regular; Types.Directory; Types.Symlink ] in
      let* mode = int_bound 0o777 in
      let* nlink = int_range 1 100 in
      let* size = int_bound Layout.max_file_size in
      let* ptrs = array_size (return 12) (int_bound 5000) in
      let* ind = int_bound 5000 in
      let* gen_ = int_bound 1000 in
      return
        {
          (Inode.empty kind ~mode ~time:1L) with
          Inode.nlink;
          size;
          direct = ptrs;
          indirect = ind;
          generation = gen_;
        })
  in
  QCheck2.Test.make ~name:"inode encode/decode roundtrip" ~count:300 gen (fun i ->
      let b = Bytes.make Layout.inode_size '\000' in
      Inode.encode i ~ino:9 b ~pos:0;
      match Inode.decode b ~pos:0 ~ino:9 with Ok i' -> Inode.equal i i' | Error _ -> false)

(* The seed is the CRC32C of the inode number's decimal string, computed
   without building it: the reference builds it, for small numbers, for
   numbers past any table a faster seed might keep, and for both ends of
   the int range. *)
let prop_inode_checksum_reference =
  QCheck2.Gen.(
    let ino =
      oneof
        [
          int_bound 5000;
          int_range 5000 1_000_000;
          int;
          oneofl [ 0; 1; 9; 10; 65535; 65536; max_int; min_int; -1 ];
        ]
    in
    QCheck2.Test.make ~name:"Inode.checksum = crc32c seeded with string_of_int ino" ~count:1000
      (pair ino int)
      (fun (ino, fill) ->
        let rng = Random.State.make [| fill |] in
        let b = Bytes.init (2 * Layout.inode_size) (fun _ -> Char.chr (Random.State.int rng 256)) in
        let pos = Random.State.int rng (Layout.inode_size + 1) in
        let seed = Rae_util.Checksum.crc32c_string (string_of_int ino) in
        Int32.equal (Inode.checksum b ~pos ~ino)
          (Rae_util.Checksum.crc32c ~init:seed b ~pos ~len:252)))

(* What one inode encode, verify and parse allocate.  The codec used to
   box an [int64] or [int32] per field and the checksum seed formatted a
   string: 64, 16 and 158 minor words per call.  Now encode and verify
   allocate nothing and parse allocates just its record: the record
   (11 words), its pointer array (13) and the two boxed times (3 each). *)
let test_inode_codec_allocation () =
  let inode = sample_inode () in
  let b = Bytes.make bs '\000' in
  let ino = 1234 and pos = 512 in
  Inode.encode inode ~ino b ~pos;
  let encode = minor_words_per_call ~calls:100 (fun () -> Inode.encode inode ~ino b ~pos) in
  let verify =
    minor_words_per_call ~calls:100 (fun () -> ignore (Sys.opaque_identity (Inode.verify b ~pos ~ino)))
  in
  let parse =
    minor_words_per_call ~calls:100 (fun () ->
        ignore (Sys.opaque_identity (Inode.decode_nocheck b ~pos)))
  in
  Alcotest.(check (float 0.)) "encode" 0. encode;
  Alcotest.(check (float 0.)) "verify" 0. verify;
  Alcotest.(check (float 0.)) "parse" 30. parse;
  Alcotest.(check bool) "still decodes" true (Result.is_ok (Inode.decode b ~pos ~ino))

let flip_bits b bits =
  List.iter
    (fun bit ->
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8)))))
    bits

(* [Inode.verify] is [decode]'s verdict without the record.  Slots: random
   bytes; encoded inodes with flipped bits; and encoded inodes with a raw
   kind, mode and size written over them and the checksum recomputed, so
   the field checks behind the checksum are reached too. *)
let prop_inode_verify_matches_decode =
  let reseal b ~ino =
    let seed = Rae_util.Checksum.crc32c_string (string_of_int ino) in
    Rae_util.Codec.set_i32 b 252 (Rae_util.Checksum.crc32c ~init:seed b ~pos:0 ~len:252)
  in
  let gen =
    QCheck2.Gen.(
      let* ino = int_range 1 100_000 in
      let* fill = int in
      let* shape = int_bound 2 in
      let* flips = list_size (int_bound 3) (int_bound ((Layout.inode_size * 8) - 1)) in
      let* kind = oneof [ int_range 1 3; int_bound 5 ] in
      let* mode = oneof [ int_bound 0o777; int_bound 0xFFFF ] in
      let max = Layout.max_file_size in
      let* size = oneof [ int_bound max; int_range (max + 1) max_int; int_range min_int (-1) ] in
      return (ino, fill, shape, flips, kind, mode, size))
  in
  QCheck2.Test.make ~name:"Inode.verify = decode's verdict" ~count:1000 gen
    (fun (ino, fill, shape, flips, kind, mode, size) ->
      let rng = Random.State.make [| fill |] in
      let b = Bytes.init Layout.inode_size (fun _ -> Char.chr (Random.State.int rng 256)) in
      if shape > 0 then Inode.encode (sample_inode ()) ~ino b ~pos:0;
      if shape = 2 then begin
        Rae_util.Codec.set_u16 b 0 kind;
        Rae_util.Codec.set_u16 b 2 mode;
        Rae_util.Codec.set_u64 b 8 (Int64.of_int size);
        reseal b ~ino
      end;
      flip_bits b flips;
      Inode.verify b ~pos:0 ~ino = Result.map ignore (Inode.decode b ~pos:0 ~ino))

(* ---- Dirent ---- *)

let reg = Types.kind_code Types.Regular
let dirk = Types.kind_code Types.Directory

let entries_of b =
  match Dirent.list b with
  | Ok es -> List.map (fun e -> (e.Dirent.name, e.Dirent.ino)) es
  | Error e -> Alcotest.failf "list: %a" Dirent.pp_error e

let test_dirent_empty_block () =
  let b = Dirent.empty_block () in
  Alcotest.(check int) "no entries" 0 (Dirent.count b);
  Alcotest.(check bool) "validates" true (Dirent.validate b = Ok ());
  Alcotest.(check int) "all space free" bs (Dirent.free_bytes b)

let test_dirent_insert_find_remove () =
  let b = Dirent.empty_block () in
  Alcotest.(check bool) "insert a" true (Dirent.insert b ~name:"alpha" ~ino:10 ~kind_code:reg);
  Alcotest.(check bool) "insert b" true (Dirent.insert b ~name:"beta" ~ino:11 ~kind_code:dirk);
  Alcotest.(check bool) "insert c" true (Dirent.insert b ~name:"gamma" ~ino:12 ~kind_code:reg);
  Alcotest.(check int) "three entries" 3 (Dirent.count b);
  (match Dirent.find b "beta" with
  | Some (Ok e) ->
      Alcotest.(check int) "ino" 11 e.Dirent.ino;
      Alcotest.(check int) "kind" dirk e.Dirent.kind_code
  | Some (Error e) -> Alcotest.failf "find: %a" Dirent.pp_error e
  | None -> Alcotest.fail "beta not found");
  Alcotest.(check bool) "absent name" true (Dirent.find b "delta" = None);
  Alcotest.(check bool) "remove beta" true (Dirent.remove b "beta");
  Alcotest.(check bool) "beta gone" true (Dirent.find b "beta" = None);
  Alcotest.(check int) "two left" 2 (Dirent.count b);
  Alcotest.(check bool) "still valid" true (Dirent.validate b = Ok ());
  Alcotest.(check bool) "remove absent" false (Dirent.remove b "beta")

let test_dirent_remove_first_entry () =
  let b = Dirent.empty_block () in
  ignore (Dirent.insert b ~name:"first" ~ino:1 ~kind_code:reg);
  ignore (Dirent.insert b ~name:"second" ~ino:2 ~kind_code:reg);
  Alcotest.(check bool) "remove head" true (Dirent.remove b "first");
  Alcotest.(check bool) "valid after head removal" true (Dirent.validate b = Ok ());
  Alcotest.(check (list (pair string int))) "second remains" [ ("second", 2) ] (entries_of b)

let test_dirent_space_reuse () =
  let b = Dirent.empty_block () in
  ignore (Dirent.insert b ~name:"victim" ~ino:1 ~kind_code:reg);
  ignore (Dirent.insert b ~name:"keeper" ~ino:2 ~kind_code:reg);
  ignore (Dirent.remove b "victim");
  Alcotest.(check bool) "reinsert into freed space" true
    (Dirent.insert b ~name:"newbie" ~ino:3 ~kind_code:reg);
  Alcotest.(check bool) "valid" true (Dirent.validate b = Ok ());
  let names = List.sort compare (List.map fst (entries_of b)) in
  Alcotest.(check (list string)) "both present" [ "keeper"; "newbie" ] names

let test_dirent_block_fills_up () =
  let b = Dirent.empty_block () in
  let inserted = ref 0 in
  (try
     for i = 0 to 1000 do
       if Dirent.insert b ~name:(Printf.sprintf "file%04d" i) ~ino:(i + 1) ~kind_code:reg then
         incr inserted
       else raise Exit
     done
   with Exit -> ());
  (* 16-byte records (8 header + 8 padded name): 256 per 4096 block. *)
  Alcotest.(check int) "fills to capacity" 256 !inserted;
  Alcotest.(check bool) "still valid when full" true (Dirent.validate b = Ok ())

let craft set_off v b =
  let c = Bytes.copy b in
  Rae_util.Codec.set_u16 c set_off v;
  c

let test_dirent_crafted_rec_len_zero () =
  let b = Dirent.empty_block () in
  ignore (Dirent.insert b ~name:"x" ~ino:1 ~kind_code:reg);
  let crafted = craft 4 0 b (* rec_len of first record = 0: kernel lockup bug shape *) in
  (match Dirent.validate crafted with
  | Error (Dirent.Bad_rec_len _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Dirent.pp_error e
  | Ok () -> Alcotest.fail "accepted rec_len 0");
  (* The trusting fast path must at least terminate. *)
  ignore (Dirent.list_nocheck crafted)

let test_dirent_crafted_overrun () =
  let b = Dirent.empty_block () in
  ignore (Dirent.insert b ~name:"x" ~ino:1 ~kind_code:reg);
  let crafted = craft 4 8192 b in
  match Dirent.validate crafted with
  | Error (Dirent.Overrun _ | Dirent.Bad_rec_len _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Dirent.pp_error e
  | Ok () -> Alcotest.fail "accepted overrun"

let test_dirent_crafted_name_len () =
  let b = Dirent.empty_block () in
  ignore (Dirent.insert b ~name:"ab" ~ino:1 ~kind_code:reg);
  let c = Bytes.copy b in
  Rae_util.Codec.set_u8 c 6 200 (* name_len stretched over the padding *);
  match Dirent.validate c with
  | Error (Dirent.Bad_name_len _ | Dirent.Bad_name _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Dirent.pp_error e
  | Ok () -> Alcotest.fail "accepted bad name_len"

let test_dirent_dot_entries_allowed () =
  let b = Dirent.empty_block () in
  Alcotest.(check bool) "." true (Dirent.insert b ~name:"." ~ino:1 ~kind_code:dirk);
  Alcotest.(check bool) ".." true (Dirent.insert b ~name:".." ~ino:1 ~kind_code:dirk);
  Alcotest.(check bool) "valid" true (Dirent.validate b = Ok ())

let prop_dirent_insert_remove =
  (* Random insert/remove sequences keep the block structurally valid and
     consistent with a model map. *)
  let gen_name = QCheck2.Gen.(map (Printf.sprintf "n%03d") (int_bound 40)) in
  QCheck2.Test.make ~name:"dirent block vs model" ~count:200
    QCheck2.Gen.(list_size (int_bound 60) (pair bool gen_name))
    (fun script ->
      let b = Dirent.empty_block () in
      let model = Hashtbl.create 16 in
      let next_ino = ref 1 in
      List.iter
        (fun (is_insert, name) ->
          if is_insert then begin
            if not (Hashtbl.mem model name) then begin
              incr next_ino;
              if Dirent.insert b ~name ~ino:!next_ino ~kind_code:1 then
                Hashtbl.replace model name !next_ino
            end
          end
          else if Hashtbl.mem model name then begin
            ignore (Dirent.remove b name);
            Hashtbl.remove model name
          end)
        script;
      Dirent.validate b = Ok ()
      && Dirent.count b = Hashtbl.length model
      && Hashtbl.fold
           (fun name ino acc ->
             acc
             && match Dirent.find b name with Some (Ok e) -> e.Dirent.ino = ino | _ -> false)
           model true)

let prop_dirent_probes_match_mutators =
  (* The read-only probes the base asks before it dirties a block agree
     with what the mutators then do, on blocks that fill up. *)
  let gen_name =
    QCheck2.Gen.(map2 (fun i pad -> Printf.sprintf "n%02d%s" i (String.make pad 'x')) (int_bound 30) (int_bound 200))
  in
  QCheck2.Test.make ~name:"room/locate agree with insert/remove" ~count:200
    QCheck2.Gen.(list_size (int_bound 80) (pair bool gen_name))
    (fun script ->
      let b = Dirent.empty_block () in
      let present name = fst (Dirent.locate b name) >= 0 in
      List.for_all
        (fun (is_insert, name) ->
          if is_insert then
            present name
            ||
            let room = Dirent.room b ~name >= 0 in
            room = Dirent.insert b ~name ~ino:2 ~kind_code:1
          else
            let present = present name in
            present = Dirent.remove b name)
        script)

(* The reference the in-place walk must match: lookup through the
   materialized [list], as the base's directory scan did. *)
let find_via_list b name =
  match Dirent.list b with
  | Error e -> Some (Error e)
  | Ok entries ->
      Option.map Result.ok (List.find_opt (fun e -> String.equal e.Dirent.name name) entries)

(* Offsets of the live records of a structurally valid block. *)
let live_offsets b =
  let rec go off acc =
    if off >= Bytes.length b then List.rev acc
    else
      let acc = if Rae_util.Codec.get_u32_int b off <> 0 then off :: acc else acc in
      go (off + Rae_util.Codec.get_u16 b (off + 4)) acc
  in
  go 0 []

type dirent_craft =
  | Intact
  | Flip_bits of int list
  | Name_byte of char  (** '/' or NUL inside a live name *)
  | Zero_name_len
  | Set_rec_len of int
  | Set_kind of int
  | Random_block

(* A block filled by a random insert/remove script — over a small
   alphabet, short names repeat and a repeated insert leaves a duplicate
   name in the block — then crafted once at a random live record. *)
let gen_dirent_block =
  QCheck2.Gen.(
    let* alphabet = oneofl [ [ 'a'; 'b'; '.' ]; List.init 26 (fun i -> Char.chr (97 + i)) ] in
    let name = string_size ~gen:(oneofl alphabet) (int_range 1 9) in
    let* script = list_size (int_bound 300) (pair (int_bound 3) name) in
    let* craft =
      oneof
        [
          return Intact;
          map (fun l -> Flip_bits l) (list_size (int_range 1 4) (int_bound ((bs * 8) - 1)));
          map (fun c -> Name_byte c) (oneofl [ '/'; '\000' ]);
          return Zero_name_len;
          map (fun v -> Set_rec_len v) (oneof [ int_bound 16; return 8192; int_bound 0xFFFF ]);
          map (fun v -> Set_kind v) (int_bound 255);
          return Random_block;
        ]
    in
    let* pick = int_bound 1_000_000 in
    return (script, craft, pick))

let build_dirent_block (script, craft, pick) =
  let b = Dirent.empty_block () in
  List.iteri
    (fun i (op, name) ->
      if op = 0 then ignore (Dirent.remove b name)
      else ignore (Dirent.insert b ~name ~ino:(i + 1) ~kind_code:(1 + (i mod 3))))
    script;
  let live = Array.of_list (live_offsets b) in
  (match craft with
  | Intact -> ()
  | Random_block ->
      let rng = Random.State.make [| pick |] in
      Bytes.iteri (fun i _ -> Bytes.set b i (Char.chr (Random.State.int rng 256))) b
  | Flip_bits bits -> flip_bits b bits
  | (Name_byte _ | Zero_name_len | Set_rec_len _ | Set_kind _) when Array.length live = 0 -> ()
  | Name_byte c ->
      let off = live.(pick mod Array.length live) in
      let name_len = Rae_util.Codec.get_u8 b (off + 6) in
      Bytes.set b (off + 8 + (pick mod name_len)) c
  | Zero_name_len -> Rae_util.Codec.set_u8 b (live.(pick mod Array.length live) + 6) 0
  | Set_rec_len v -> Rae_util.Codec.set_u16 b (live.(pick mod Array.length live) + 4) v
  | Set_kind v -> Rae_util.Codec.set_u8 b (live.(pick mod Array.length live) + 7) v);
  (b, List.sort_uniq compare ("zz" :: "a/b" :: List.map snd script))

let prop_dirent_validate_matches_list =
  QCheck2.Test.make ~name:"Dirent.validate/count = list's verdict" ~count:500 gen_dirent_block
    (fun input ->
      let b, _ = build_dirent_block input in
      let listed = Dirent.list b in
      Dirent.validate b = Result.map ignore listed
      && Dirent.count b = match listed with Ok es -> List.length es | Error _ -> 0)

let prop_dirent_find_matches_list =
  QCheck2.Test.make ~name:"Dirent.find = lookup through list" ~count:500 gen_dirent_block
    (fun input ->
      let b, probes = build_dirent_block input in
      List.for_all (fun name -> Dirent.find b name = find_via_list b name) probes)

(* The two-pass lookup [find] replaced, kept as its reference: validate
   the whole block, then the header-only [locate] walk. *)
let find_two_pass b name =
  match Dirent.validate b with
  | Error e -> Some (Error e)
  | Ok () -> (
      match Dirent.locate b name with
      | -1, _ -> None
      | off, _ ->
          let ino = Rae_util.Codec.get_u32_int b off in
          Some (Ok { Dirent.ino; kind_code = Rae_util.Codec.get_u8 b (off + 7); name }))

let prop_dirent_find_matches_two_pass =
  QCheck2.Test.make ~name:"Dirent.find = validate, then locate" ~count:500 gen_dirent_block
    (fun input ->
      let b, probes = build_dirent_block input in
      List.for_all (fun name -> Dirent.find b name = find_two_pass b name) probes)

(* The base dirties a block between its probe and its mutation, so it
   acts on the probe's offsets: that must be what the one-call mutators
   do, byte for byte, on any block. *)
let prop_dirent_at_mutators =
  QCheck2.Test.make ~name:"insert_at/remove_at = insert/remove" ~count:500
    gen_dirent_block (fun input ->
      let b, probes = build_dirent_block input in
      List.for_all
        (fun name ->
          let b1 = Bytes.copy b and b2 = Bytes.copy b in
          let inserted = Dirent.insert b1 ~name ~ino:77 ~kind_code:reg in
          let at = Dirent.room b2 ~name in
          if at >= 0 then Dirent.insert_at b2 at ~name ~ino:77 ~kind_code:reg;
          let r1 = Bytes.copy b and r2 = Bytes.copy b in
          let removed = Dirent.remove r1 name in
          let off, prev = Dirent.locate r2 name in
          if off >= 0 then Dirent.remove_at r2 ~off ~prev;
          inserted = (at >= 0) && Bytes.equal b1 b2 && removed = (off >= 0) && Bytes.equal r1 r2)
        probes)

(* A block filled with 16-byte records "file0000", "file0001", ...;
   returns it with its record count. *)
let full_dirent_block () =
  let b = Dirent.empty_block () in
  let n = ref 0 in
  while Dirent.insert b ~name:(Printf.sprintf "file%04d" !n) ~ino:(!n + 1) ~kind_code:reg do
    incr n
  done;
  (b, !n)

let test_dirent_validate_allocates_nothing () =
  let b, n = full_dirent_block () in
  Alcotest.(check int) "block full" 256 n;
  let per_call f = minor_words_per_call ~calls:100 (fun () -> ignore (Sys.opaque_identity (f b))) in
  Alcotest.(check (float 0.)) "validate" 0. (per_call Dirent.validate);
  Alcotest.(check (float 0.)) "free_bytes" 0. (per_call Dirent.free_bytes)

let test_dirent_find_miss_allocates_nothing () =
  let b, _ = full_dirent_block () in
  let per_call name =
    minor_words_per_call ~calls:100 (fun () -> ignore (Sys.opaque_identity (Dirent.find b name)))
  in
  (* Same length as every stored name, so each record is compared. *)
  Alcotest.(check bool) "miss" true (Dirent.find b "file9999" = None);
  Alcotest.(check (float 0.)) "miss, same length" 0. (per_call "file9999");
  Alcotest.(check (float 0.)) "miss, other length" 0. (per_call "nope");
  (* A hit allocates the entry: [Some], [Ok] and the record. *)
  Alcotest.(check (float 0.)) "hit" 8. (per_call "file0255")

(* ---- Mkfs + Reader ---- *)

let mk_device ?(nblocks = 256) () =
  let disk = Rae_block.Disk.create ~latency:Rae_block.Disk.zero_latency ~block_size:bs ~nblocks () in
  (disk, Rae_block.Device.of_disk disk)

let test_mkfs_produces_valid_image () =
  let _disk, dev = mk_device () in
  match Mkfs.format dev ~ninodes:64 () with
  | Error msg -> Alcotest.failf "mkfs: %s" msg
  | Ok sb ->
      Alcotest.(check int) "free inodes" 63 sb.Superblock.free_inodes;
      let reader =
        match Reader.attach (fun blk -> Rae_block.Device.read dev blk) with
        | Ok r -> r
        | Error e -> Alcotest.failf "reader attach: %a" Reader.pp_error e
      in
      (match Reader.read_inode reader 1 with
      | Ok root ->
          Alcotest.(check bool) "root is dir" true (root.Inode.kind = Types.Directory);
          Alcotest.(check int) "root nlink" 2 root.Inode.nlink;
          (match Reader.read_file_block reader root 0 with
          | Ok block ->
              let names = List.map (fun e -> e.Dirent.name) (Result.get_ok (Dirent.list block)) in
              Alcotest.(check (list string)) "dot entries" [ "."; ".." ] names
          | Error e -> Alcotest.failf "root block: %a" Reader.pp_error e)
      | Error e -> Alcotest.failf "root inode: %a" Reader.pp_error e);
      (match Reader.read_inode_opt reader 2 with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "inode 2 should be free"
      | Error e -> Alcotest.failf "inode 2: %a" Reader.pp_error e);
      match (Reader.load_inode_bitmap reader, Reader.load_block_bitmap reader) with
      | Ok ibm, Ok bbm ->
          Alcotest.(check int) "inode bitmap free" 63 (Bitmap.count_free ibm);
          Alcotest.(check int) "block bitmap free" sb.Superblock.free_blocks (Bitmap.count_free bbm)
      | Error e, _ | _, Error e -> Alcotest.failf "bitmaps: %a" Reader.pp_error e

let test_mkfs_too_small () =
  let _disk, dev = mk_device ~nblocks:16 () in
  match Mkfs.format dev ~ninodes:64 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mkfs accepted a too-small device"

let test_reader_file_block_chains () =
  (* Build an inode by hand with direct, indirect and double-indirect
     pointers and verify the resolution logic at each level. *)
  let disk, dev = mk_device ~nblocks:4096 () in
  ignore (Result.get_ok (Mkfs.format dev ~ninodes:64 ()));
  let reader = Result.get_ok (Reader.attach (fun blk -> Rae_block.Device.read dev blk)) in
  let g = Reader.geometry reader in
  let d0 = g.Layout.data_start in
  (* indirect block at d0+20: entry 0 -> d0+30; double at d0+21: L1[0] ->
     d0+22, whose entry 5 -> d0+40. *)
  let iblk = Bytes.make bs '\000' in
  Rae_util.Codec.set_u32_int iblk 0 (d0 + 30);
  Rae_block.Disk.write disk (d0 + 20) iblk;
  let dblk = Bytes.make bs '\000' in
  Rae_util.Codec.set_u32_int dblk 0 (d0 + 22);
  Rae_block.Disk.write disk (d0 + 21) dblk;
  let l2 = Bytes.make bs '\000' in
  Rae_util.Codec.set_u32_int l2 (4 * 5) (d0 + 40);
  Rae_block.Disk.write disk (d0 + 22) l2;
  let inode =
    {
      (Inode.empty Types.Regular ~mode:0o644 ~time:0L) with
      Inode.size = Layout.max_file_size;
      direct = Array.init 12 (fun i -> if i = 0 then d0 + 10 else 0);
      indirect = d0 + 20;
      double_indirect = d0 + 21;
    }
  in
  let fb i = Result.get_ok (Reader.file_block reader inode i) in
  Alcotest.(check int) "direct 0" (d0 + 10) (fb 0);
  Alcotest.(check int) "direct hole" 0 (fb 1);
  Alcotest.(check int) "indirect entry 0" (d0 + 30) (fb 12);
  Alcotest.(check int) "indirect hole" 0 (fb 13);
  Alcotest.(check int) "double [0][5]" (d0 + 40) (fb (12 + 1024 + 5));
  Alcotest.(check int) "double hole L1" 0 (fb (12 + 1024 + 1024 + 3));
  (* Out-of-range pointer must be rejected. *)
  let bad = { inode with Inode.direct = Array.make 12 1 (* metadata block *) } in
  Alcotest.(check bool) "bad pointer rejected" true (Result.is_error (Reader.file_block reader bad 0))

let test_reader_read_file () =
  let disk, dev = mk_device () in
  ignore (Result.get_ok (Mkfs.format dev ~ninodes:64 ()));
  let reader = Result.get_ok (Reader.attach (fun blk -> Rae_block.Device.read dev blk)) in
  let g = Reader.geometry reader in
  let d0 = g.Layout.data_start in
  let content = Bytes.make bs 'q' in
  Rae_block.Disk.write disk (d0 + 3) content;
  let inode =
    {
      (Inode.empty Types.Regular ~mode:0o644 ~time:0L) with
      Inode.size = 100;
      direct = Array.init 12 (fun i -> if i = 0 then d0 + 3 else 0);
    }
  in
  Alcotest.(check string) "first 100 bytes" (String.make 100 'q')
    (Result.get_ok (Reader.read_file reader inode))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_format"
    [
      ( "layout",
        [
          Alcotest.test_case "regions ordered" `Quick test_layout_regions_ordered;
          Alcotest.test_case "too small rejected" `Quick test_layout_too_small;
          Alcotest.test_case "inode location" `Quick test_layout_inode_location;
          Alcotest.test_case "max file blocks" `Quick test_layout_max_file;
        ] );
      ( "superblock",
        [
          Alcotest.test_case "roundtrip" `Quick test_sb_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_sb_bad_magic;
          Alcotest.test_case "bad checksum" `Quick test_sb_bad_checksum;
          Alcotest.test_case "crafted geometry" `Quick test_sb_crafted_geometry;
          Alcotest.test_case "bad counts" `Quick test_sb_bad_counts;
          Alcotest.test_case "state field" `Quick test_sb_state;
        ] );
      ( "bitmap",
        [
          Alcotest.test_case "basic ops" `Quick test_bitmap_basic;
          Alcotest.test_case "checked set/clear" `Quick test_bitmap_result_ops;
          Alcotest.test_case "find_free" `Quick test_bitmap_find_free;
          Alcotest.test_case "next-fit rotor" `Quick test_bitmap_cursor_next_fit;
          Alcotest.test_case "parse restores count" `Quick test_bitmap_parse_restores_count;
          Alcotest.test_case "block roundtrip" `Quick test_bitmap_block_roundtrip;
          Alcotest.test_case "padding strictness" `Quick test_bitmap_padding_strictness;
          Alcotest.test_case "undersized rejected" `Quick test_bitmap_too_few_blocks;
          q prop_bitmap_roundtrip;
          q prop_bitmap_parse_matches_reference;
          q prop_encode_block_matches_to_blocks;
          q prop_find_free_matches_naive;
          q prop_cursor_allocates_every_free_bit;
          q prop_counts_maintained;
        ] );
      ( "inode",
        [
          Alcotest.test_case "roundtrip" `Quick test_inode_roundtrip;
          Alcotest.test_case "checksum seeded by ino" `Quick test_inode_checksum_seeded_by_ino;
          Alcotest.test_case "corruption detected" `Quick test_inode_corruption_detected;
          Alcotest.test_case "nocheck trusts" `Quick test_inode_nocheck_trusts;
          Alcotest.test_case "free slot detection" `Quick test_inode_free_slot;
          Alcotest.test_case "field validation" `Quick test_inode_field_validation;
          q prop_inode_roundtrip;
          q prop_inode_verify_matches_decode;
          q prop_inode_checksum_reference;
          Alcotest.test_case "codec allocation" `Quick test_inode_codec_allocation;
        ] );
      ( "dirent",
        [
          Alcotest.test_case "empty block" `Quick test_dirent_empty_block;
          Alcotest.test_case "insert/find/remove" `Quick test_dirent_insert_find_remove;
          Alcotest.test_case "remove first entry" `Quick test_dirent_remove_first_entry;
          Alcotest.test_case "space reuse" `Quick test_dirent_space_reuse;
          Alcotest.test_case "fills to capacity" `Quick test_dirent_block_fills_up;
          Alcotest.test_case "crafted rec_len 0" `Quick test_dirent_crafted_rec_len_zero;
          Alcotest.test_case "crafted overrun" `Quick test_dirent_crafted_overrun;
          Alcotest.test_case "crafted name_len" `Quick test_dirent_crafted_name_len;
          Alcotest.test_case "dot entries allowed" `Quick test_dirent_dot_entries_allowed;
          q prop_dirent_insert_remove;
          q prop_dirent_probes_match_mutators;
          q prop_dirent_validate_matches_list;
          q prop_dirent_find_matches_list;
          q prop_dirent_find_matches_two_pass;
          q prop_dirent_at_mutators;
          Alcotest.test_case "validate allocates nothing" `Quick
            test_dirent_validate_allocates_nothing;
          Alcotest.test_case "find miss allocates nothing" `Quick
            test_dirent_find_miss_allocates_nothing;
        ] );
      ( "mkfs+reader",
        [
          Alcotest.test_case "mkfs valid image" `Quick test_mkfs_produces_valid_image;
          Alcotest.test_case "mkfs too small" `Quick test_mkfs_too_small;
          Alcotest.test_case "file block chains" `Quick test_reader_file_block_chains;
          Alcotest.test_case "read_file" `Quick test_reader_read_file;
        ] );
    ]
