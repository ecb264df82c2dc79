(* Tests for rae_basefs: smoke, spec-equivalence, caching, persistence,
   crash consistency, trusting-fast-path crashes and injected bugs. *)

open Rae_vfs
module Base = Rae_basefs.Base
module Detector = Rae_basefs.Detector
module Bug_registry = Rae_basefs.Bug_registry
module Spec = Rae_specfs.Spec
module Disk = Rae_block.Disk
module Device = Rae_block.Device
module Layout = Rae_format.Layout
module Fsck = Rae_fsck.Fsck

let p = Path.parse_exn
let bs = Layout.block_size
let ok = Result.get_ok

let mk_disk ?(nblocks = 2048) () =
  Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks ()

let mk_base ?config ?bugs ?(nblocks = 2048) ?(ninodes = 256) () =
  let disk = mk_disk ~nblocks () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes ()));
  (disk, dev, ok (Base.mount ?config ?bugs dev))

(* ---- smoke ---- *)

let test_mkfs_mount_smoke () =
  let _disk, _dev, b = mk_base () in
  ignore (ok (Base.mkdir b (p "/home") ~mode:0o755));
  let fd = ok (Base.openf b (p "/home/doc") Types.flags_create) in
  Alcotest.(check int) "write" 5 (ok (Base.pwrite b fd ~off:0 "hello"));
  Alcotest.(check string) "read" "hello" (ok (Base.pread b fd ~off:0 ~len:100));
  ignore (ok (Base.close b fd));
  Alcotest.(check (list string)) "readdir" [ "doc" ] (ok (Base.readdir b (p "/home")))

let test_mount_unformatted () =
  let disk = mk_disk () in
  match Base.mount (Device.of_disk disk) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mounted an unformatted device"

let test_persistence_across_remount () =
  let disk = mk_disk () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:256 ()));
  let b = ok (Base.mount dev) in
  ignore (ok (Base.mkdir b (p "/d") ~mode:0o700));
  let fd = ok (Base.openf b (p "/d/f") Types.flags_create) in
  ignore (ok (Base.pwrite b fd ~off:0 "persistent data"));
  ignore (ok (Base.close b fd));
  ignore (ok (Base.unmount b));
  (* Fresh mount sees everything. *)
  let b2 = ok (Base.mount dev) in
  Alcotest.(check (list string)) "dir" [ "f" ] (ok (Base.readdir b2 (p "/d")));
  let fd = ok (Base.openf b2 (p "/d/f") Types.flags_ro) in
  Alcotest.(check string) "data" "persistent data" (ok (Base.pread b2 fd ~off:0 ~len:100));
  ignore (ok (Base.close b2 fd));
  let st = ok (Base.stat b2 (p "/d")) in
  Alcotest.(check int) "mode survives" 0o700 st.Types.st_mode;
  (* And the image passes fsck. *)
  ignore (ok (Base.unmount b2));
  Alcotest.(check bool) "fsck clean" true (Fsck.clean (Fsck.check_device dev))

let test_group_commit_interval () =
  let _disk, _dev, b =
    mk_base ~config:{ Base.default_config with Base.commit_interval = 4 } ()
  in
  ignore (ok (Base.create b (p "/f1") ~mode:0o644));
  ignore (ok (Base.create b (p "/f2") ~mode:0o644));
  ignore (ok (Base.create b (p "/f3") ~mode:0o644));
  Alcotest.(check int) "no commit yet" 0 (Base.stats b).Base.commits;
  Alcotest.(check int) "3 ops pending" 3 (Base.ops_since_commit b);
  ignore (ok (Base.create b (p "/f4") ~mode:0o644));
  Alcotest.(check int) "interval commit" 1 (Base.stats b).Base.commits;
  Alcotest.(check int) "window reset" 0 (Base.ops_since_commit b)

let test_fsync_forces_commit () =
  let _disk, _dev, b = mk_base () in
  let fd = ok (Base.openf b (p "/f") Types.flags_create) in
  ignore (ok (Base.pwrite b fd ~off:0 "x"));
  Alcotest.(check int) "buffered" 0 (Base.stats b).Base.commits;
  ignore (ok (Base.fsync b fd));
  Alcotest.(check bool) "committed" true ((Base.stats b).Base.commits >= 1);
  ignore (ok (Base.close b fd))

let test_on_commit_hook () =
  let _disk, _dev, b = mk_base () in
  let fired = ref 0 in
  let seqs = ref [] in
  Base.on_commit b (fun ~commit_seq ->
      incr fired;
      seqs := commit_seq :: !seqs);
  ignore (ok (Base.create b (p "/f") ~mode:0o644));
  ignore (ok (Base.sync b));
  Alcotest.(check int) "hook fired" 1 !fired;
  ignore (ok (Base.create b (p "/g") ~mode:0o644));
  ignore (ok (Base.sync b));
  Alcotest.(check int) "hook fired again" 2 !fired;
  (* The carried commit seq is the journal's durable txn sequence:
     strictly monotonic across commits. *)
  match !seqs with
  | [ s2; s1 ] -> Alcotest.(check bool) "commit seq advances" true (Int64.compare s2 s1 > 0)
  | _ -> Alcotest.fail "expected two recorded commit seqs"

(* ---- caching ---- *)

let test_dcache_effective () =
  let _disk, _dev, b = mk_base () in
  ignore (ok (Base.mkdir b (p "/a") ~mode:0o755));
  ignore (ok (Base.mkdir b (p "/a/b") ~mode:0o755));
  ignore (ok (Base.create b (p "/a/b/f") ~mode:0o644));
  let before = (Base.dcache_stats b).Rae_cache.Lru.hits in
  for _ = 1 to 50 do
    ignore (ok (Base.lookup b (p "/a/b/f")))
  done;
  let after = (Base.dcache_stats b).Rae_cache.Lru.hits in
  Alcotest.(check bool) "dcache hits accumulate" true (after - before >= 100)

let test_negative_dentries () =
  let _disk, _dev, b = mk_base () in
  (* Repeated misses hit the negative entry, not the directory blocks. *)
  (match Base.lookup b (p "/missing") with Error Errno.ENOENT -> () | _ -> Alcotest.fail "expected ENOENT");
  let h0 = (Base.dcache_stats b).Rae_cache.Lru.hits in
  for _ = 1 to 20 do
    match Base.lookup b (p "/missing") with
    | Error Errno.ENOENT -> ()
    | _ -> Alcotest.fail "expected ENOENT"
  done;
  Alcotest.(check bool) "negative entries hit" true ((Base.dcache_stats b).Rae_cache.Lru.hits - h0 >= 20)

let test_bcache_hits () =
  let _disk, _dev, b = mk_base () in
  let fd = ok (Base.openf b (p "/f") Types.flags_create) in
  ignore (ok (Base.pwrite b fd ~off:0 (String.make 8192 'x')));
  for _ = 1 to 30 do
    ignore (ok (Base.pread b fd ~off:0 ~len:8192))
  done;
  ignore (ok (Base.close b fd));
  let s = Base.bcache_stats b in
  Alcotest.(check bool) "block cache hit-dominated" true (s.Rae_cache.Lru.hits > 10 * s.Rae_cache.Lru.misses)

(* ---- write path ---- *)

(* A block freed and reused inside one transaction: the stale image the
   transaction held from before the free must not land over the new
   contents at commit. *)
let test_freed_block_leaves_txn () =
  let ninodes = 16 in
  let nblocks =
    match Layout.compute ~nblocks:4096 ~ninodes () with
    | Ok g -> g.Layout.data_start + 10
    | Error m -> Alcotest.fail m
  in
  let _disk, dev, b = mk_base ~nblocks ~ninodes () in
  ignore (ok (Base.mkdir b (p "/d") ~mode:0o755));
  let fd = ok (Base.openf b (p "/big") Types.flags_create) in
  let rec fill off =
    match Base.pwrite b fd ~off (String.make bs 'B') with
    | Ok _ -> fill (off + bs)
    | Error Errno.ENOSPC -> ()
    | Error e -> Alcotest.failf "filling: %s" (Errno.to_string e)
  in
  fill 0;
  ignore (ok (Base.close b fd));
  (* /d's block is freed, and the next-fit rotor wraps straight to it. *)
  ignore (ok (Base.rmdir b (p "/d")));
  let fd = ok (Base.openf b (p "/f") Types.flags_create) in
  ignore (ok (Base.pwrite b fd ~off:0 (String.make bs 'X')));
  ignore (ok (Base.close b fd));
  ignore (ok (Base.sync b));
  ignore (ok (Base.contained_reboot b));
  let fd = ok (Base.openf b (p "/f") Types.flags_ro) in
  let got = ok (Base.pread b fd ~off:0 ~len:bs) in
  if not (String.equal got (String.make bs 'X')) then
    Alcotest.failf "the reused block reads back %S..., not /f's data" (String.sub got 0 16);
  Alcotest.(check bool) "fsck clean" true (Fsck.clean (Fsck.check_device dev))

(* A 4 KiB image is over the minor heap's 256-word limit, so each one is
   allocated straight in the major heap.  The write path copies a block
   once per transaction, not once per mutation: on rfsd's image a
   metadata churn loop stays under one image's worth of major words per
   op.  Same ops, same allocations: the count is deterministic. *)
let test_major_alloc_budget () =
  let _disk, _dev, b = mk_base ~nblocks:8192 ~ninodes:1024 () in
  ignore (ok (Base.mkdir b (p "/d") ~mode:0o755));
  let ops =
    List.init 50 (fun i ->
        let f = p (Printf.sprintf "/d/f%d" i)
        and g = p (Printf.sprintf "/d/g%d" i)
        and h = p (Printf.sprintf "/d/h%d" i) in
        Op.[ Create (f, 0o644); Chmod (f, 0o600); Rename (f, g); Link (g, h); Unlink g; Unlink h ])
    |> List.concat
  in
  let round () =
    List.iter
      (fun op ->
        match Base.exec b op with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" (Op.kind_to_string (Op.kind op)) (Errno.to_string e))
      ops
  in
  (* Warm the caches and grow the tables first. *)
  round ();
  round ();
  let rounds = 10 in
  Gc.full_major ();
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to rounds do
    round ()
  done;
  let per_op = ((Gc.quick_stat ()).Gc.major_words -. w0) /. float_of_int (rounds * List.length ops) in
  let image_words = (bs / (Sys.word_size / 8)) + 1 in
  if per_op > float_of_int image_words then
    Alcotest.failf "%.0f major words per op, over one block image (%d)" per_op image_words

(* A 16 KiB read copies its bytes out of the block cache once, into the
   one string it returns. *)
let test_read_one_string () =
  let _disk, _dev, b = mk_base () in
  let fd = ok (Base.openf b (p "/big") Types.flags_create) in
  let data = String.init 16384 (fun i -> Char.chr (i * 7 land 0xff)) in
  Alcotest.(check int) "write" 16384 (ok (Base.pwrite b fd ~off:0 data));
  Alcotest.(check string) "first read" data (ok (Base.pread b fd ~off:0 ~len:16384));
  let got = ref "" in
  let words =
    Alloc_words.direct_major_words (fun () -> got := ok (Base.pread b fd ~off:0 ~len:16384))
  in
  Alcotest.(check string) "second read" data !got;
  let one_string = Alloc_words.string_words 16384 in
  if words <> float_of_int one_string then
    Alcotest.failf "a 16 KiB read allocated %.0f major words, not one %d-word string" words
      one_string

(* A commit writes from buffers it already owns: the journal encodes its
   descriptor, commit and journal-superblock blocks into one block it
   keeps, the ordered flush writes the cached data blocks themselves, the
   bitmap blocks and the superblock are encoded into their cached images,
   and a clean cached block becomes the transaction's image in place.  On
   rfsd's image, once the blocks a write touches are cached, an overwrite
   and its fsync allocate no block image, and a new file's cycle only its
   one new data block. *)
let test_commit_allocates_no_image () =
  let _disk, _dev, b = mk_base ~nblocks:8192 ~ninodes:1024 () in
  let data = String.make 512 'c' in
  let fd = ok (Base.openf b (p "/f") Types.flags_create) in
  let overwrite () =
    ignore (ok (Base.pwrite b fd ~off:0 data));
    ignore (ok (Base.fsync b fd))
  in
  overwrite ();
  overwrite ();
  let words = Alloc_words.direct_major_words overwrite in
  if words <> 0. then Alcotest.failf "a pwrite and its fsync allocated %.0f major words" words;
  let cycle i () =
    let fd = ok (Base.openf b (p (Printf.sprintf "/g%d" i)) Types.flags_create) in
    ignore (ok (Base.pwrite b fd ~off:0 data));
    ignore (ok (Base.fsync b fd));
    ignore (ok (Base.close b fd))
  in
  cycle 0 ();
  cycle 1 ();
  let words = Alloc_words.direct_major_words (cycle 2) in
  let image = Alloc_words.string_words bs in
  if words > float_of_int image then
    Alcotest.failf "create, pwrite, fsync and close allocated %.0f major words, over one %d-word image"
      words image;
  ignore (ok (Base.close b fd))

(* The ordered flush reaches the device in ascending block order,
   whatever order the blocks were dirtied in: eight data blocks
   overwritten last to first, one commit, and the data writes ahead of
   that commit's first journal write come in ascending order. *)
let test_ordered_data_ascending () =
  let disk = mk_disk () in
  let raw = Device.of_disk disk in
  ignore (ok (Base.mkfs raw ~ninodes:256 ()));
  let data_start =
    (ok (Rae_format.Superblock.decode (Disk.read disk 0))).Rae_format.Superblock.geometry
      .Layout.data_start
  in
  let writes = ref [] in
  let dev =
    {
      raw with
      Device.dev_write =
        (fun blk data ->
          writes := blk :: !writes;
          raw.Device.dev_write blk data);
    }
  in
  let b = ok (Base.mount dev) in
  let fd = ok (Base.openf b (p "/f") Types.flags_create) in
  ignore (ok (Base.pwrite b fd ~off:0 (String.make (8 * bs) 'a')));
  ignore (ok (Base.fsync b fd));
  writes := [];
  for i = 7 downto 0 do
    ignore (ok (Base.pwrite b fd ~off:(i * bs) (String.make bs (Char.chr (98 + i)))))
  done;
  ignore (ok (Base.fsync b fd));
  let rec data_prefix = function
    | blk :: rest when blk >= data_start -> blk :: data_prefix rest
    | _ -> []
  in
  let data = data_prefix (List.rev !writes) in
  Alcotest.(check int) "eight data writes" 8 (List.length data);
  Alcotest.(check (list int)) "ascending" (List.sort Int.compare data) data

(* A data write the device refuses fails its commit whole.  The metadata
   that points at the block must not commit without it, so [fsync]
   reports EIO and the image keeps the old size; the transaction stays,
   and the next [fsync] persists both. *)
let test_failed_data_write_fails_commit () =
  let disk = mk_disk () in
  let raw = Device.of_disk disk in
  ignore (ok (Base.mkfs raw ~ninodes:256 ()));
  let data_start =
    (ok (Rae_format.Superblock.decode (Disk.read disk 0))).Rae_format.Superblock.geometry
      .Layout.data_start
  in
  let refuse = ref false in
  let dev =
    {
      raw with
      Device.dev_write =
        (fun blk data ->
          if !refuse && blk >= data_start then raise (Device.Io_error "data write refused");
          raw.Device.dev_write blk data);
    }
  in
  let b = ok (Base.mount dev) in
  let fd = ok (Base.openf b (p "/f") Types.flags_create) in
  ignore (ok (Base.fsync b fd));
  (* The size the image shows, from a remount of a copy of the disk. *)
  let persisted () =
    let copy = mk_disk () in
    Disk.restore copy (Disk.snapshot disk);
    let b2 = ok (Base.mount (Device.of_disk copy)) in
    let fd2 = ok (Base.openf b2 (p "/f") Types.flags_ro) in
    ok (Base.pread b2 fd2 ~off:0 ~len:100)
  in
  refuse := true;
  Alcotest.(check int) "write" 5 (ok (Base.pwrite b fd ~off:0 "hello"));
  (match Base.fsync b fd with
  | Error Errno.EIO -> ()
  | Ok () -> Alcotest.fail "fsync returned Ok over a refused data write"
  | Error e -> Alcotest.failf "fsync: %s, not EIO" (Errno.to_string e));
  Alcotest.(check string) "the image keeps the old size" "" (persisted ());
  refuse := false;
  (match Base.fsync b fd with
  | Ok () -> ()
  | Error e -> Alcotest.failf "the next fsync: %s" (Errno.to_string e));
  Alcotest.(check string) "read back" "hello" (ok (Base.pread b fd ~off:0 ~len:100));
  Alcotest.(check string) "persisted" "hello" (persisted ());
  ignore (ok (Base.close b fd));
  Alcotest.(check bool) "fsck clean" true (Fsck.clean (Fsck.check_device raw))

let test_cache_policies_equivalent_semantics () =
  (* LRU vs 2Q must not change any outcome, only performance. *)
  let run policy =
    let _disk, _dev, b =
      mk_base ~config:{ Base.default_config with Base.cache_policy = policy; bcache_capacity = 16 } ()
    in
    let rng = Rae_util.Rng.create 21L in
    let ops = Rae_workload.Workload.ops Rae_workload.Workload.Fileserver rng ~count:300 in
    List.map (fun op -> Base.exec b op) ops
  in
  let a = run `Lru and b = run `Two_q in
  Alcotest.(check bool) "identical outcomes" true
    (List.for_all2 (fun x y -> Op.outcome_equal x y) a b)

(* ---- equivalence with the specification ---- *)

let run_equivalence ?config ~seed ~count () =
  let rng = Rae_util.Rng.create seed in
  let ops = Rae_workload.Workload.uniform rng ~count in
  let sp = Spec.make () in
  let _disk, _dev, b = mk_base ?config () in
  List.iteri
    (fun i op ->
      let ro = Spec.exec sp op in
      let bo = Base.exec b op in
      if not (Op.outcome_equal ro bo) then
        Alcotest.failf "op %d %s: spec %s, base %s (seed %Ld)" i (Op.to_string op)
          (Format.asprintf "%a" Op.pp_outcome ro)
          (Format.asprintf "%a" Op.pp_outcome bo)
          seed)
    ops

let test_equivalence_seeds () =
  List.iter (fun seed -> run_equivalence ~seed ~count:400 ()) [ 1L; 7L; 123L ]

let test_equivalence_small_commit_interval () =
  (* Commit churn must be invisible at the API. *)
  run_equivalence
    ~config:{ Base.default_config with Base.commit_interval = 2; bcache_capacity = 8 }
    ~seed:55L ~count:400 ()

let prop_base_equals_spec =
  QCheck2.Test.make ~name:"base == spec on random traces" ~count:25
    QCheck2.Gen.(pair ui64 (int_range 20 150))
    (fun (seed, count) ->
      run_equivalence ~seed ~count ();
      true)

let test_profile_equivalence () =
  List.iter
    (fun profile ->
      let rng = Rae_util.Rng.create 3L in
      let ops = Rae_workload.Workload.ops profile rng ~count:250 in
      let sp = Spec.make () in
      let _disk, _dev, b = mk_base () in
      List.iteri
        (fun i op ->
          let ro = Spec.exec sp op in
          let bo = Base.exec b op in
          if not (Op.outcome_equal ro bo) then
            Alcotest.failf "%s op %d %s: spec %s, base %s"
              (Rae_workload.Workload.profile_name profile)
              i (Op.to_string op)
              (Format.asprintf "%a" Op.pp_outcome ro)
              (Format.asprintf "%a" Op.pp_outcome bo))
        ops)
    Rae_workload.Workload.all_profiles

(* ---- durability and crash consistency ---- *)

let test_crash_consistency () =
  (* Run a workload through the crash simulator, power-fail at an
     arbitrary point, remount (journal replay) and fsck: the image must be
     consistent regardless of where the crash landed. *)
  let attempts = [ (1L, 17); (2L, 55); (3L, 131); (4L, 200); (5L, 77) ] in
  List.iter
    (fun (seed, crash_after) ->
      let disk = mk_disk () in
      let raw = Device.of_disk disk in
      ignore (ok (Base.mkfs raw ~ninodes:256 ()));
      let sim, dev = Rae_block.Crashsim.create ~rng:(Rae_util.Rng.create seed) raw in
      let b =
        ok (Base.mount ~config:{ Base.default_config with Base.commit_interval = 8 } dev)
      in
      let rng = Rae_util.Rng.create seed in
      let ops = Rae_workload.Workload.ops Rae_workload.Workload.Varmail rng ~count:300 in
      (try
         List.iteri
           (fun i op ->
             if i = crash_after then raise Exit;
             ignore (Base.exec b op))
           ops
       with Exit -> ());
      Rae_block.Crashsim.crash_partial sim;
      (* Remount replays the journal; the resulting image must be clean. *)
      let b2 = ok (Base.mount raw) in
      ignore (ok (Base.unmount b2));
      let report = Fsck.check_device raw in
      (* Orphans and leaked blocks are legal crash leftovers (warnings);
         structural errors are not. *)
      if not (Fsck.clean report) then
        Alcotest.failf "seed %Ld crash@%d: %s" seed crash_after
          (String.concat "; "
             (List.map (fun f -> Format.asprintf "%a" Fsck.pp_finding f) (Fsck.errors report))))
    attempts

let test_synced_data_survives_crash () =
  let disk = mk_disk () in
  let raw = Device.of_disk disk in
  ignore (ok (Base.mkfs raw ~ninodes:256 ()));
  let sim, dev = Rae_block.Crashsim.create raw in
  let b = ok (Base.mount dev) in
  let fd = ok (Base.openf b (p "/precious") Types.flags_create) in
  ignore (ok (Base.pwrite b fd ~off:0 "must survive"));
  ignore (ok (Base.fsync b fd));
  (* Unsynced follow-up. *)
  ignore (ok (Base.pwrite b fd ~off:0 "MUST SURVIVE")) (* not fsynced *);
  Rae_block.Crashsim.crash sim;
  let b2 = ok (Base.mount raw) in
  let fd = ok (Base.openf b2 (p "/precious") Types.flags_ro) in
  Alcotest.(check string) "fsynced content intact" "must survive"
    (ok (Base.pread b2 fd ~off:0 ~len:100))

(* ---- trusting fast paths crash on crafted images ---- *)

let test_crafted_dirent_panics_base () =
  let disk, dev, b = mk_base () in
  ignore dev;
  ignore (ok (Base.create b (p "/x") ~mode:0o644));
  ignore (ok (Base.sync b));
  (* Corrupt the root directory block on the medium and drop caches by
     rebooting, then touch the directory. *)
  let g = (ok (Rae_format.Reader.attach (fun blk -> Disk.read disk blk))).Rae_format.Reader.sb
            .Rae_format.Superblock.geometry in
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:4 (fun _ -> '\000');
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:5 (fun _ -> '\000');
  ignore (ok (Base.contained_reboot b));
  match Base.exec b (Op.Lookup (p "/x")) with
  | exception Detector.Base_bug _ -> ()
  | outcome -> Alcotest.failf "expected a base oops, got %a" Op.pp_outcome outcome

(* The lookup validates the whole block before it compares names: a
   crafted record after the wanted name is still a BUG, as it was when
   the scan materialized every entry first. *)
let test_crafted_dirent_after_name_panics_base () =
  let disk, _dev, b = mk_base () in
  ignore (ok (Base.create b (p "/x") ~mode:0o644));
  ignore (ok (Base.create b (p "/y") ~mode:0o644));
  ignore (ok (Base.sync b));
  let g = (ok (Rae_format.Reader.attach (fun blk -> Disk.read disk blk))).Rae_format.Reader.sb
            .Rae_format.Superblock.geometry in
  let root = Disk.read disk g.Layout.data_start in
  let rec offset_of name off =
    let name_len = Rae_util.Codec.get_u8 root (off + 6) in
    if Rae_util.Codec.get_string root ~pos:(off + 8) ~len:name_len = name then off
    else offset_of name (off + Rae_util.Codec.get_u16 root (off + 4))
  in
  Alcotest.(check bool) "x precedes y" true (offset_of "x" 0 < offset_of "y" 0);
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:(offset_of "y" 0 + 7) (fun _ -> '\x99');
  ignore (ok (Base.contained_reboot b));
  match Base.exec b (Op.Lookup (p "/x")) with
  | exception Detector.Base_bug { bug; _ } ->
      Alcotest.(check string) "classified" "crafted-dirent" bug
  | outcome -> Alcotest.failf "expected a crafted-dirent oops, got %a" Op.pp_outcome outcome

let test_wild_pointer_panics_base () =
  let disk, _dev, b = mk_base () in
  ignore (ok (Base.create b (p "/x") ~mode:0o644));
  let fd = ok (Base.openf b (p "/x") Types.flags_rw) in
  ignore (ok (Base.pwrite b fd ~off:0 "data"));
  ignore (ok (Base.sync b));
  (* Point the file's first block pointer beyond the device. *)
  let g = (ok (Rae_format.Reader.attach (fun blk -> Disk.read disk blk))).Rae_format.Reader.sb
            .Rae_format.Superblock.geometry in
  let iblk, ioff = Layout.inode_location g 2 in
  let table = Disk.read disk iblk in
  Rae_util.Codec.set_u32_int table (ioff + 32) 99999999;
  Disk.write disk iblk table;
  ignore (ok (Base.contained_reboot b));
  let fd2 = ok (Base.openf b (p "/x") Types.flags_ro) in
  ignore fd;
  match Base.exec b (Op.Pread (fd2, 0, 4)) with
  | exception Detector.Base_bug { bug; _ } ->
      Alcotest.(check string) "classified as wild pointer" "wild-pointer" bug
  | outcome -> Alcotest.failf "expected a wild-pointer oops, got %a" Op.pp_outcome outcome

(* ---- injected bugs ---- *)

let arm ids =
  Bug_registry.arm ~rng:(Rae_util.Rng.create 9L)
    (List.filter_map Bug_registry.find ids)

let test_bug_panic () =
  let _disk, _dev, b = mk_base ~bugs:(arm [ "crafted-name-panic" ]) () in
  ignore (ok (Base.mkdir b (p "/safe") ~mode:0o755));
  match Base.exec b (Op.Create (p "/safe/pwn", 0o644)) with
  | exception Detector.Base_bug { bug; _ } ->
      Alcotest.(check string) "bug id" "crafted-name-panic" bug
  | outcome -> Alcotest.failf "expected panic, got %a" Op.pp_outcome outcome

let test_bug_nth_trigger () =
  let _disk, _dev, b = mk_base ~bugs:(arm [ "extent-status-warn" ]) () in
  ignore (ok (Base.create b (p "/f") ~mode:0o644));
  for i = 1 to 4 do
    ignore (Base.exec b (Op.Truncate (p "/f", i)))
  done;
  Alcotest.(check int) "no warning yet" 0 (Detector.warn_count (Base.detector b));
  ignore (Base.exec b (Op.Truncate (p "/f", 5)));
  Alcotest.(check int) "5th truncate warns" 1 (Detector.warn_count (Base.detector b));
  (match Detector.warnings (Base.detector b) with
  | [ w ] -> Alcotest.(check string) "warning names the bug" "extent-status-warn" w.Detector.w_bug
  | _ -> Alcotest.fail "expected exactly one warning");
  ignore (Base.exec b (Op.Truncate (p "/f", 6)));
  Alcotest.(check int) "one-shot trigger" 1 (Detector.warn_count (Base.detector b))

let test_bug_silent_corruption_caught_at_commit () =
  let _disk, _dev, b =
    mk_base
      ~config:{ Base.default_config with Base.commit_interval = 1000 }
      ~bugs:(arm [ "mballoc-freecount" ])
      ()
  in
  (* 30 creates fire the corruption; nothing visible until the commit. *)
  for i = 1 to 30 do
    ignore (Base.exec b (Op.Create (p (Printf.sprintf "/f%d" i), 0o644)))
  done;
  match Base.sync b with
  | exception Detector.Validation_failed { context; _ } ->
      Alcotest.(check string) "caught at the sync barrier" "superblock" context
  | Ok () -> Alcotest.fail "silent corruption reached the disk"
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

let test_bug_dirent_corruption_caught_at_commit () =
  let _disk, _dev, b =
    mk_base
      ~config:{ Base.default_config with Base.commit_interval = 1000 }
      ~bugs:(arm [ "dirent-reclen-zero" ])
      ()
  in
  (try
     for i = 1 to 8 do
       ignore (Base.exec b (Op.Mkdir (p (Printf.sprintf "/d%d" i), 0o755)))
     done
   with Detector.Base_bug _ -> ()
   (* The scribbled cache block may organically crash a later op; either
      detection channel is a detected runtime error. *));
  match Base.sync b with
  | exception Detector.Validation_failed _ -> ()
  | exception Detector.Base_bug _ -> ()
  | Ok () -> Alcotest.fail "corrupt dirent reached the disk"
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

let test_bug_hang () =
  let _disk, _dev, b = mk_base ~bugs:(arm [ "fsync-deadlock" ]) () in
  let fd = ok (Base.openf b (p "/f") Types.flags_create) in
  (try
     for _ = 1 to 15 do
       ignore (Base.exec b (Op.Fsync fd))
     done;
     Alcotest.fail "expected a hang"
   with Detector.Hang { bug; _ } -> Alcotest.(check string) "bug id" "fsync-deadlock" bug)

let test_bug_wrong_result () =
  let _disk, _dev, b = mk_base ~bugs:(arm [ "stat-size-skew" ]) () in
  let fd = ok (Base.openf b (p "/f") Types.flags_create) in
  ignore (ok (Base.pwrite b fd ~off:0 "12345"));
  ignore (ok (Base.close b fd));
  let sizes =
    List.init 20 (fun _ ->
        match Base.exec b (Op.Stat (p "/f")) with
        | Ok (Op.St st) -> st.Types.st_size
        | _ -> -1)
  in
  (* The 20th stat is skewed by one; no exception is raised. *)
  Alcotest.(check int) "19 correct" 5 (List.nth sizes 0);
  Alcotest.(check int) "20th skewed" 6 (List.nth sizes 19)

let test_nondeterministic_bug_fires_sometimes () =
  let bugs = arm [ "rename-race-panic" ] in
  let _disk, _dev, b = mk_base ~bugs () in
  ignore (ok (Base.create b (p "/f0") ~mode:0o644));
  let fired = ref false in
  (try
     for i = 0 to 199 do
       match Base.exec b (Op.Rename (p (Printf.sprintf "/f%d" i), p (Printf.sprintf "/f%d" (i + 1)))) with
       | Ok _ | Error _ -> ()
     done
   with Detector.Base_bug _ -> fired := true);
  Alcotest.(check bool) "racy bug fired within 200 renames" true !fired

(* ---- contained reboot ---- *)

let test_contained_reboot_restores_committed_state () =
  let _disk, _dev, b = mk_base () in
  ignore (ok (Base.create b (p "/committed") ~mode:0o644));
  ignore (ok (Base.sync b));
  ignore (ok (Base.create b (p "/volatile") ~mode:0o644)) (* in the window *);
  let fd = ok (Base.openf b (p "/committed") Types.flags_ro) in
  ignore fd;
  ignore (ok (Base.contained_reboot b));
  (* Committed state is back; the volatile window and fd table are gone. *)
  Alcotest.(check bool) "committed file present" true
    (Result.is_ok (Base.lookup b (p "/committed")));
  (match Base.lookup b (p "/volatile") with
  | Error Errno.ENOENT -> ()
  | _ -> Alcotest.fail "uncommitted state survived the reboot");
  (match Base.pread b fd ~off:0 ~len:1 with
  | Error Errno.EBADF -> ()
  | _ -> Alcotest.fail "fd survived the reboot");
  Alcotest.(check (list (pair int (pair int Alcotest.reject)))) "fd table empty" []
    (List.map (fun (a, b, c) -> (a, (b, c))) (Base.fd_table b))

(* A recovery's download journals the shadow's data-region blocks
   (directory, indirect, symlink and file data) whole.  The commit that
   persists them must unpin them, as it unpins every block it persists.
   On the one-commit path the download leaves the hand-off dirty and
   pinned, and the next commit unpins it; on the chunked path a small
   journal forces (its soft limit is 8 blocks at 16 journal blocks), the
   download ends with a commit and leaves nothing pinned. *)
let test_download_unpins_handoff () =
  let module Shadow = Rae_shadowfs.Shadow in
  List.iter
    (fun (name, journal_len, ndirs, chunked) ->
      let disk = mk_disk () in
      let dev = Device.of_disk disk in
      ignore (ok (Base.mkfs dev ~ninodes:256 ?journal_len ()));
      let b = ok (Base.mount dev) in
      ignore (ok (Base.mkdir b (p "/a") ~mode:0o755));
      Base.commit b;
      Alcotest.(check int) (name ^ ": pinned after a commit") 0 (Base.pinned_blocks b);
      let sh = ok (Shadow.attach dev) in
      for i = 0 to ndirs - 1 do
        ignore (ok (Shadow.mkdir sh (p (Printf.sprintf "/a/d%d" i)) ~mode:0o755))
      done;
      ignore (ok (Base.contained_reboot b));
      let handoff = Shadow.dirty_blocks sh in
      let commits = (Base.stats b).Base.commits in
      ok (Base.download_metadata b ~blocks:handoff ~fd_table:[] ~time:(Shadow.time sh));
      if chunked then
        Alcotest.(check int) (name ^ ": pinned after the download") 0 (Base.pinned_blocks b)
      else begin
        Alcotest.(check int) (name ^ ": no commit in the download") commits
          (Base.stats b).Base.commits;
        Alcotest.(check int) (name ^ ": the hand-off stays pinned") (List.length handoff)
          (Base.pinned_blocks b)
      end;
      Alcotest.(check int) (name ^ ": handed-over entries") ndirs
        (List.length (ok (Base.readdir b (p "/a"))));
      Base.commit b;
      Alcotest.(check int) (name ^ ": pinned after the next commit") 0 (Base.pinned_blocks b);
      for i = 0 to 159 do
        ignore (ok (Base.create b (p (Printf.sprintf "/a/f%d" i)) ~mode:0o644))
      done;
      ignore (ok (Base.sync b));
      Alcotest.(check int) (name ^ ": pinned after creates and a sync") 0 (Base.pinned_blocks b))
    [ ("one commit", None, 1, false); ("chunked", Some 16, 24, true) ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_basefs"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "smoke" `Quick test_mkfs_mount_smoke;
          Alcotest.test_case "mount unformatted" `Quick test_mount_unformatted;
          Alcotest.test_case "persistence across remount" `Quick test_persistence_across_remount;
          Alcotest.test_case "group commit interval" `Quick test_group_commit_interval;
          Alcotest.test_case "fsync commits" `Quick test_fsync_forces_commit;
          Alcotest.test_case "commit hook" `Quick test_on_commit_hook;
        ] );
      ( "caches",
        [
          Alcotest.test_case "dcache effective" `Quick test_dcache_effective;
          Alcotest.test_case "negative dentries" `Quick test_negative_dentries;
          Alcotest.test_case "bcache hits" `Quick test_bcache_hits;
          Alcotest.test_case "policy-independent semantics" `Quick test_cache_policies_equivalent_semantics;
        ] );
      ( "write path",
        [
          Alcotest.test_case "freed block leaves the txn" `Quick test_freed_block_leaves_txn;
          Alcotest.test_case "major allocation budget" `Quick test_major_alloc_budget;
          Alcotest.test_case "16 KiB read allocates one string" `Quick test_read_one_string;
          Alcotest.test_case "download commit unpins the hand-off" `Quick
            test_download_unpins_handoff;
          Alcotest.test_case "a commit allocates no block image" `Quick
            test_commit_allocates_no_image;
          Alcotest.test_case "a failed data write fails the commit" `Quick
            test_failed_data_write_fails_commit;
          Alcotest.test_case "ordered data reaches the device in block order" `Quick
            test_ordered_data_ascending;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fixed seeds" `Quick test_equivalence_seeds;
          Alcotest.test_case "tiny commit interval" `Quick test_equivalence_small_commit_interval;
          Alcotest.test_case "profiles" `Quick test_profile_equivalence;
          q prop_base_equals_spec;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash consistency" `Quick test_crash_consistency;
          Alcotest.test_case "synced data survives" `Quick test_synced_data_survives_crash;
        ] );
      ( "crafted",
        [
          Alcotest.test_case "crafted dirent panics" `Quick test_crafted_dirent_panics_base;
          Alcotest.test_case "crafted dirent after the name panics" `Quick
            test_crafted_dirent_after_name_panics_base;
          Alcotest.test_case "wild pointer panics" `Quick test_wild_pointer_panics_base;
        ] );
      ( "bugs",
        [
          Alcotest.test_case "panic" `Quick test_bug_panic;
          Alcotest.test_case "nth trigger warn" `Quick test_bug_nth_trigger;
          Alcotest.test_case "silent corruption caught" `Quick test_bug_silent_corruption_caught_at_commit;
          Alcotest.test_case "dirent corruption caught" `Quick test_bug_dirent_corruption_caught_at_commit;
          Alcotest.test_case "hang" `Quick test_bug_hang;
          Alcotest.test_case "wrong result undetected" `Quick test_bug_wrong_result;
          Alcotest.test_case "non-deterministic bug" `Quick test_nondeterministic_bug_fires_sometimes;
        ] );
      ( "reboot",
        [ Alcotest.test_case "contained reboot" `Quick test_contained_reboot_restores_committed_state ] );
    ]
