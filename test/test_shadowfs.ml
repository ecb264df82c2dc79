(* Tests for rae_shadowfs: overlay behaviour, runtime checks, and the key
   property — the shadow is observationally equivalent to the executable
   specification on arbitrary operation sequences. *)

open Rae_vfs
module Spec = Rae_specfs.Spec
module Shadow = Rae_shadowfs.Shadow
module Overlay = Rae_shadowfs.Overlay
module Disk = Rae_block.Disk
module Device = Rae_block.Device
module Layout = Rae_format.Layout

let p = Path.parse_exn
let bs = Layout.block_size
let ok = Result.get_ok

let mk_image ?(nblocks = 2048) ?(ninodes = 256) () =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let dev = Device.of_disk disk in
  ignore (ok (Rae_format.Mkfs.format dev ~ninodes ()));
  (disk, dev)

let mk_shadow ?config () =
  let disk, dev = mk_image () in
  (disk, ok (Shadow.attach ?config dev))

(* ---- overlay ---- *)

let test_overlay_cow () =
  let disk, dev = mk_image () in
  let ov = Overlay.create dev in
  let before = Disk.writes disk in
  Overlay.write ov 100 (Bytes.make bs 'x');
  Alcotest.(check int) "device untouched" before (Disk.writes disk);
  Alcotest.(check bool) "read sees overlay" true (Bytes.equal (Overlay.read ov 100) (Bytes.make bs 'x'));
  Alcotest.(check int) "one dirty block" 1 (Overlay.dirty_count ov);
  Alcotest.(check bool) "mem" true (Overlay.mem ov 100);
  Alcotest.(check bool) "other blocks from device" false (Overlay.mem ov 0)

let test_overlay_sorted_dirty () =
  let _disk, dev = mk_image () in
  let ov = Overlay.create dev in
  List.iter (fun b -> Overlay.write ov b (Bytes.make bs 'x')) [ 300; 100; 200 ];
  Alcotest.(check (list int)) "sorted" [ 100; 200; 300 ] (List.map fst (Overlay.dirty ov))

(* ---- shadow never writes ---- *)

let test_shadow_never_writes_device () =
  let disk, sh = mk_shadow () in
  Disk.reset_counters disk;
  ignore (ok (Shadow.mkdir sh (p "/d") ~mode:0o755));
  ignore (ok (Shadow.create sh (p "/d/f") ~mode:0o644));
  let fd = ok (Shadow.openf sh (p "/d/f") Types.flags_rw) in
  ignore (ok (Shadow.pwrite sh fd ~off:0 (String.make 10000 'z')));
  ignore (ok (Shadow.close sh fd));
  ignore (ok (Shadow.rename sh (p "/d/f") (p "/d/g")));
  ignore (ok (Shadow.unlink sh (p "/d/g")));
  Alcotest.(check int) "zero device writes" 0 (Disk.writes disk);
  Alcotest.(check bool) "overlay accumulated the state" true (List.length (Shadow.dirty_blocks sh) > 0)

let test_shadow_smoke () =
  let _disk, sh = mk_shadow () in
  ignore (ok (Shadow.mkdir sh (p "/home") ~mode:0o755));
  let fd = ok (Shadow.openf sh (p "/home/doc.txt") Types.flags_create) in
  Alcotest.(check int) "write" 11 (ok (Shadow.pwrite sh fd ~off:0 "hello world"));
  Alcotest.(check string) "read back" "hello world" (ok (Shadow.pread sh fd ~off:0 ~len:100));
  ignore (ok (Shadow.close sh fd));
  Alcotest.(check (list string)) "listing" [ "doc.txt" ] (ok (Shadow.readdir sh (p "/home")));
  let st = ok (Shadow.stat sh (p "/home/doc.txt")) in
  Alcotest.(check int) "size" 11 st.Types.st_size

let test_shadow_large_file_indirect () =
  (* Cross the direct-pointer boundary (12 * 4096 = 49152 bytes). *)
  let _disk, sh = mk_shadow () in
  let fd = ok (Shadow.openf sh (p "/big") Types.flags_create) in
  let chunk = String.make bs 'A' in
  for i = 0 to 19 do
    Alcotest.(check int) "chunk written" bs (ok (Shadow.pwrite sh fd ~off:(i * bs) chunk))
  done;
  Alcotest.(check int) "size" (20 * bs) (ok (Shadow.fstat sh fd)).Types.st_size;
  Alcotest.(check string) "read across boundary" (String.make 100 'A')
    (ok (Shadow.pread sh fd ~off:((12 * bs) - 50) ~len:100));
  (* Truncate back under the boundary: indirect blocks freed. *)
  ignore (ok (Shadow.close sh fd));
  ignore (ok (Shadow.truncate sh (p "/big") ~size:100));
  Alcotest.(check int) "shrunk" 100 (ok (Shadow.stat sh (p "/big"))).Types.st_size

let test_shadow_enospc () =
  (* A tiny image runs out of blocks; ENOSPC must surface, not corruption. *)
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:80 () in
  let dev = Device.of_disk disk in
  ignore (ok (Rae_format.Mkfs.format dev ~ninodes:16 ~journal_len:4 ()));
  let sh = ok (Shadow.attach dev) in
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_create) in
  let big = String.make (100 * bs) 'x' in
  (match Shadow.pwrite sh fd ~off:0 big with
  | Error Errno.ENOSPC -> ()
  | Error e -> Alcotest.failf "expected ENOSPC, got %s" (Errno.to_string e)
  | Ok n -> Alcotest.failf "wrote %d bytes on a full disk" n);
  (* The filesystem must still work after the failure. *)
  ignore (ok (Shadow.close sh fd));
  ignore (ok (Shadow.create sh (p "/small") ~mode:0o644))

(* ---- runtime checks ---- *)

let test_checks_counted () =
  let _disk, sh = mk_shadow () in
  ignore (ok (Shadow.create sh (p "/f") ~mode:0o644));
  Alcotest.(check bool) "checks performed" true (Shadow.checks_performed sh > 0);
  let _disk2, sh2 = mk_shadow ~config:{ Shadow.default_config with Shadow.checks = false } () in
  ignore (ok (Shadow.create sh2 (p "/f") ~mode:0o644));
  Alcotest.(check int) "no checks when disabled" 0 (Shadow.checks_performed sh2)

let test_violation_on_corrupt_inode () =
  let disk, dev = mk_image () in
  ignore dev;
  (* Corrupt the root inode on the medium, then attach and operate. *)
  let g = (Result.get_ok (Rae_format.Reader.attach (fun b -> Disk.read disk b))).Rae_format.Reader.sb
          .Rae_format.Superblock.geometry in
  Disk.corrupt_byte disk ~block:g.Layout.inode_table_start ~offset:10 (fun _ -> '\xee');
  let sh = ok (Shadow.attach (Device.of_disk disk)) in
  match Shadow.create sh (p "/f") ~mode:0o644 with
  | exception Shadow.Violation _ -> ()
  | Ok _ -> Alcotest.fail "operated on a corrupt image"
  | Error e -> Alcotest.failf "expected Violation, got errno %s" (Errno.to_string e)

let test_violation_on_crafted_dirent () =
  let disk, dev = mk_image () in
  ignore dev;
  let g = (Result.get_ok (Rae_format.Reader.attach (fun b -> Disk.read disk b))).Rae_format.Reader.sb
          .Rae_format.Superblock.geometry in
  (* rec_len = 0 in the root directory block. *)
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:4 (fun _ -> '\000');
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:5 (fun _ -> '\000');
  let sh = ok (Shadow.attach (Device.of_disk disk)) in
  match Shadow.lookup sh (p "/x") with
  | exception Shadow.Violation _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "crafted dirent not caught"

(* ---- equivalence with the specification ---- *)

let snapshot_shadow sh =
  (* Rebuild a Spec-comparable view by walking the shadow through its own
     public API. *)
  let rec walk path acc =
    let names = ok (Shadow.readdir sh (p path)) in
    List.fold_left
      (fun acc name ->
        let child = if path = "/" then "/" ^ name else path ^ "/" ^ name in
        (* Use lookup without following for kind via readlink probe. *)
        match Shadow.readlink sh (p child) with
        | Ok target -> (child, `Symlink target) :: acc
        | Error Errno.EINVAL -> (
            let st = ok (Shadow.stat sh (p child)) in
            match st.Types.st_kind with
            | Types.Directory -> walk child ((child, `Dir) :: acc)
            | Types.Regular ->
                let fd = ok (Shadow.openf sh (p child) Types.flags_ro) in
                let data = ok (Shadow.pread sh fd ~off:0 ~len:st.Types.st_size) in
                ignore (ok (Shadow.close sh fd));
                (child, `File data) :: acc
            | Types.Symlink -> acc (* unreachable: stat follows *))
        | Error e -> Alcotest.failf "walk %s: %s" child (Errno.to_string e))
      acc names
  in
  List.sort compare (walk "/" [])

let snapshot_spec sp =
  let snap = Spec.snapshot sp in
  snap.Spec.State.entries
  |> List.filter_map (fun e ->
         if e.Spec.State.e_path = "/" || String.length e.Spec.State.e_path > 0 && e.Spec.State.e_path.[0] = '!' then None
         else
           match e.Spec.State.e_kind with
           | Types.Directory -> Some (e.Spec.State.e_path, `Dir)
           | Types.Regular -> Some (e.Spec.State.e_path, `File e.Spec.State.e_content)
           | Types.Symlink -> Some (e.Spec.State.e_path, `Symlink e.Spec.State.e_content))
  |> List.sort compare

let run_equivalence ~seed ~count =
  let rng = Rae_util.Rng.create seed in
  let ops = Rae_workload.Workload.uniform rng ~count in
  let sp = Spec.make () in
  let _disk, sh = mk_shadow () in
  List.iteri
    (fun i op ->
      let ro = Spec.exec sp op in
      let so = Shadow.exec sh op in
      if not (Op.outcome_equal ro so) then
        Alcotest.failf "op %d %s: spec %s, shadow %s" i (Op.to_string op)
          (Format.asprintf "%a" Op.pp_outcome ro)
          (Format.asprintf "%a" Op.pp_outcome so))
    ops;
  (* Final state equivalence, contents included. *)
  let a = snapshot_spec sp and b = snapshot_shadow sh in
  if a <> b then
    Alcotest.failf "final states differ after %d ops (seed %Ld): %d vs %d entries" count seed
      (List.length a) (List.length b)

let test_equivalence_seeds () =
  List.iter (fun seed -> run_equivalence ~seed ~count:300) [ 1L; 2L; 3L; 42L; 99L ]

let prop_shadow_equals_spec =
  QCheck2.Test.make ~name:"shadow == spec on random traces" ~count:40
    QCheck2.Gen.(pair ui64 (int_range 20 200))
    (fun (seed, count) ->
      run_equivalence ~seed ~count;
      true)

let test_profile_traces_equivalent () =
  (* The profile workloads (mostly-succeeding realistic shapes) must also
     agree, including fd-number allocation across open/close churn. *)
  List.iter
    (fun profile ->
      let rng = Rae_util.Rng.create 7L in
      let ops = Rae_workload.Workload.ops profile rng ~count:200 in
      let sp = Spec.make () in
      let _disk, sh = mk_shadow () in
      List.iteri
        (fun i op ->
          let ro = Spec.exec sp op in
          let so = Shadow.exec sh op in
          if not (Op.outcome_equal ro so) then
            Alcotest.failf "%s op %d %s: spec %s, shadow %s"
              (Rae_workload.Workload.profile_name profile)
              i (Op.to_string op)
              (Format.asprintf "%a" Op.pp_outcome ro)
              (Format.asprintf "%a" Op.pp_outcome so))
        ops)
    Rae_workload.Workload.all_profiles

(* ---- fast paths vs naive execution ---- *)

let naive_config = { Shadow.default_config with Shadow.fast_paths = false }

let run_fast_vs_naive ~seed ~count =
  let rng = Rae_util.Rng.create seed in
  let ops = Rae_workload.Workload.uniform rng ~count in
  let _d1, fast = mk_shadow () in
  let _d2, naive = mk_shadow ~config:naive_config () in
  List.iteri
    (fun i op ->
      let fo = Shadow.exec fast op in
      let no = Shadow.exec naive op in
      if not (Op.outcome_equal fo no) then
        Alcotest.failf "op %d %s: fast %s, naive %s" i (Op.to_string op)
          (Format.asprintf "%a" Op.pp_outcome fo)
          (Format.asprintf "%a" Op.pp_outcome no))
    ops;
  if snapshot_shadow fast <> snapshot_shadow naive then
    Alcotest.failf "fast/naive final states differ after %d ops (seed %Ld)" count seed

let prop_fast_equals_naive =
  QCheck2.Test.make ~name:"fast_paths == naive walk on random traces" ~count:30
    QCheck2.Gen.(pair ui64 (int_range 20 200))
    (fun (seed, count) ->
      run_fast_vs_naive ~seed ~count;
      true)

let test_cache_invalidation_adversary () =
  (* Interleave lookups (cache warmers) with every namespace mutation that
     could leave a resolution or dirent-index entry stale. *)
  let _disk, sh = mk_shadow () in
  let expect_enoent what r =
    match r with
    | Error Errno.ENOENT -> ()
    | Ok _ -> Alcotest.failf "%s: stale cached resolution survived" what
    | Error e -> Alcotest.failf "%s: expected ENOENT, got %s" what (Errno.to_string e)
  in
  ignore (ok (Shadow.mkdir sh (p "/a") ~mode:0o755));
  ignore (ok (Shadow.mkdir sh (p "/a/b") ~mode:0o755));
  ignore (ok (Shadow.create sh (p "/a/b/f") ~mode:0o644));
  ignore (ok (Shadow.lookup sh (p "/a/b/f")));
  ignore (ok (Shadow.stat sh (p "/a/b")));
  (* Rename the middle component out from under the cached resolution. *)
  ignore (ok (Shadow.rename sh (p "/a/b") (p "/a/c")));
  expect_enoent "lookup after dir rename" (Shadow.lookup sh (p "/a/b/f"));
  ignore (ok (Shadow.lookup sh (p "/a/c/f")));
  (* Unlink, then recreate the same name as a different kind. *)
  ignore (ok (Shadow.unlink sh (p "/a/c/f")));
  expect_enoent "lookup after unlink" (Shadow.lookup sh (p "/a/c/f"));
  ignore (ok (Shadow.mkdir sh (p "/a/c/f") ~mode:0o755));
  let st = ok (Shadow.stat sh (p "/a/c/f")) in
  (match st.Types.st_kind with
  | Types.Directory -> ()
  | _ -> Alcotest.fail "recreated entry resolved to the stale file inode");
  (* rmdir frees the inode: both the resolution and the dirent index must drop. *)
  ignore (ok (Shadow.rmdir sh (p "/a/c/f")));
  expect_enoent "readdir of removed dir" (Shadow.readdir sh (p "/a/c/f"));
  Alcotest.(check (list string)) "parent listing updated" [] (ok (Shadow.readdir sh (p "/a/c")));
  (* Symlink replacement: the new link must be followed, not the cached one. *)
  ignore (ok (Shadow.symlink sh ~target:"/a/c" (p "/ln")));
  ignore (ok (Shadow.stat sh (p "/ln")));
  ignore (ok (Shadow.unlink sh (p "/ln")));
  ignore (ok (Shadow.symlink sh ~target:"/nowhere" (p "/ln")));
  expect_enoent "stat through replaced symlink" (Shadow.stat sh (p "/ln"))

let test_window_equals_per_op () =
  (* Record a trace autonomously, then fold it both per-op (a window of
     one per entry) and as one batched window on fresh twins: identical
     tallies and identical state. *)
  let rng = Rae_util.Rng.create 11L in
  let ops = Rae_workload.Workload.uniform rng ~count:150 in
  let _dr, recorder = mk_shadow () in
  let recorded = List.mapi (fun i op -> { Op.op; outcome = Shadow.exec recorder op; seq = i }) ops in
  let _d1, per_op = mk_shadow () in
  let m, d, s =
    List.fold_left
      (fun (m, d, s) r ->
        let w = Shadow.exec_constrained_window per_op [ r ] in
        (m + w.Shadow.w_matches, d + w.Shadow.w_divergences, s + w.Shadow.w_skipped))
      (0, 0, 0) recorded
  in
  let _d2, windowed = mk_shadow () in
  let w = Shadow.exec_constrained_window windowed recorded in
  Alcotest.(check int) "ops" (List.length recorded) w.Shadow.w_ops;
  Alcotest.(check int) "matches" m w.Shadow.w_matches;
  Alcotest.(check int) "divergences" d w.Shadow.w_divergences;
  Alcotest.(check int) "skipped" s w.Shadow.w_skipped;
  if snapshot_shadow per_op <> snapshot_shadow windowed then
    Alcotest.fail "windowed and per-op folds reached different states";
  (* The window amortizes the per-mutation epilogue, so it must do strictly
     fewer runtime checks than per-op replay of the same trace. *)
  Alcotest.(check bool) "window amortizes checks" true
    (Shadow.checks_performed windowed < Shadow.checks_performed per_op)

let test_fd_table_exposed () =
  let _disk, sh = mk_shadow () in
  ignore (ok (Shadow.create sh (p "/f") ~mode:0o644));
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_rw) in
  (match Shadow.fd_table sh with
  | [ (fd', ino, flags) ] ->
      Alcotest.(check int) "fd" fd fd';
      Alcotest.(check int) "ino" 2 ino;
      Alcotest.(check bool) "flags" true (flags = Types.flags_rw)
  | other -> Alcotest.failf "unexpected fd table size %d" (List.length other));
  ignore (ok (Shadow.close sh fd))

(* A 16 KiB read of blocks the overlay holds copies its bytes once, into
   the one string it returns. *)
let test_read_one_string () =
  let _disk, sh = mk_shadow () in
  let fd = ok (Shadow.openf sh (p "/big") Types.flags_create) in
  let data = String.init 16384 (fun i -> Char.chr (i * 7 land 0xff)) in
  Alcotest.(check int) "write" 16384 (ok (Shadow.pwrite sh fd ~off:0 data));
  Alcotest.(check string) "first read" data (ok (Shadow.pread sh fd ~off:0 ~len:16384));
  let got = ref "" in
  let words =
    Alloc_words.direct_major_words (fun () -> got := ok (Shadow.pread sh fd ~off:0 ~len:16384))
  in
  Alcotest.(check string) "second read" data !got;
  let one_string = Alloc_words.string_words 16384 in
  if words <> float_of_int one_string then
    Alcotest.failf "a 16 KiB read allocated %.0f major words, not one %d-word string" words
      one_string

(* The hand-off takes the overlay's own buffers: a file of 11 data
   blocks dirties 16 blocks (the data, its inode-table block, both
   bitmaps, the superblock and the root directory), and handing them
   over allocates no block image. *)
let test_handoff_copies_nothing () =
  let _disk, sh = mk_shadow () in
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_create) in
  Alcotest.(check int) "write" (11 * bs) (ok (Shadow.pwrite sh fd ~off:0 (String.make (11 * bs) 'h')));
  let blocks = ref [] in
  let words = Alloc_words.direct_major_words (fun () -> blocks := Shadow.dirty_blocks sh) in
  Alcotest.(check int) "dirty blocks" 16 (List.length !blocks);
  if words <> 0. then Alcotest.failf "handing over 16 blocks allocated %.0f major words" words

(* An overlay miss hands its buffer back to the device once [view]'s
   callback is done with it (DESIGN §25).  Once one miss has run, a stat
   whose only device reads are [view] misses (the inode-table and
   directory blocks it resolves through) allocates no block image;
   without the hand-back each miss is a fresh 4 KiB image, 514 words
   with its header. *)
let test_view_miss_allocates_no_image () =
  let disk, dev = mk_image () in
  let sh = ok (Shadow.attach dev) in
  List.iter (fun d -> ignore (ok (Shadow.mkdir sh (p d) ~mode:0o755))) [ "/d"; "/e" ];
  List.iter (fun f -> ignore (ok (Shadow.create sh (p f) ~mode:0o644))) [ "/d/a"; "/e/b" ];
  List.iter (fun (blk, data) -> Disk.write disk blk data) (Shadow.dirty_blocks sh);
  let sh = ok (Shadow.attach (Device.of_disk disk)) in
  ignore (ok (Shadow.stat sh (p "/d/a")));
  let reads = Shadow.device_reads sh in
  let words = Alloc_words.direct_major_words (fun () -> ignore (ok (Shadow.stat sh (p "/e/b")))) in
  Alcotest.(check bool) "the stat missed the overlay" true (Shadow.device_reads sh > reads);
  if words <> 0. then Alcotest.failf "a stat of overlay misses allocated %.0f major words" words

(* An attach decodes the superblock and both bitmaps in place, through
   the overlay's view, and hands each miss buffer back to the device.
   Once a device handle holds a handed-back buffer, an attach allocates
   no block image; through [Overlay.read], every block but the first
   would be a fresh 4 KiB image. *)
let test_attach_allocates_no_image () =
  let _disk, dev = mk_image () in
  ignore (ok (Shadow.attach dev));
  let words = Alloc_words.direct_major_words (fun () -> ignore (ok (Shadow.attach dev))) in
  if words <> 0. then Alcotest.failf "an attach allocated %.0f major words" words

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_shadowfs"
    [
      ( "overlay",
        [
          Alcotest.test_case "copy-on-write" `Quick test_overlay_cow;
          Alcotest.test_case "dirty sorted" `Quick test_overlay_sorted_dirty;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "never writes the device" `Quick test_shadow_never_writes_device;
          Alcotest.test_case "smoke" `Quick test_shadow_smoke;
          Alcotest.test_case "indirect blocks" `Quick test_shadow_large_file_indirect;
          Alcotest.test_case "ENOSPC" `Quick test_shadow_enospc;
          Alcotest.test_case "fd table" `Quick test_fd_table_exposed;
          Alcotest.test_case "16 KiB read allocates one string" `Quick test_read_one_string;
          Alcotest.test_case "the hand-off copies no block" `Quick test_handoff_copies_nothing;
          Alcotest.test_case "an overlay miss allocates no block image" `Quick
            test_view_miss_allocates_no_image;
          Alcotest.test_case "an attach allocates no block image" `Quick
            test_attach_allocates_no_image;
        ] );
      ( "checks",
        [
          Alcotest.test_case "counted / disableable" `Quick test_checks_counted;
          Alcotest.test_case "violation on corrupt inode" `Quick test_violation_on_corrupt_inode;
          Alcotest.test_case "violation on crafted dirent" `Quick test_violation_on_crafted_dirent;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fixed seeds" `Quick test_equivalence_seeds;
          Alcotest.test_case "profile traces" `Quick test_profile_traces_equivalent;
          q prop_shadow_equals_spec;
        ] );
      ( "fast-paths",
        [
          Alcotest.test_case "cache invalidation adversary" `Quick test_cache_invalidation_adversary;
          Alcotest.test_case "window == per-op fold" `Quick test_window_equals_per_op;
          q prop_fast_equals_naive;
        ] );
    ]
