(* End-to-end tests for rae_core: transparent masking of every bug class,
   state reconstruction fidelity, fd preservation, delegated sync,
   discrepancy reporting, graceful degradation. *)

open Rae_vfs
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Controller = Rae_core.Controller
module Report = Rae_core.Report
module Spec = Rae_specfs.Spec
module Disk = Rae_block.Disk
module Device = Rae_block.Device
module Layout = Rae_format.Layout

let p = Path.parse_exn
let bs = Layout.block_size
let ok = Result.get_ok

let arm ?(rng_seed = 9L) ids =
  Bug_registry.arm ~rng:(Rae_util.Rng.create rng_seed) (List.filter_map Bug_registry.find ids)

let mk ?policy ?config ?bugs ?(nblocks = 2048) ?(ninodes = 256) () =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes ()));
  let base = ok (Base.mount ?config ?bugs dev) in
  (disk, dev, Controller.make ?policy ~device:dev base)

(* Run a trace through both the controller and the spec, asserting outcome
   equality op by op.  This is the paper's core claim: despite runtime
   errors, applications observe exactly POSIX semantics. *)
let assert_matches_spec ?(expect_recoveries = false) ?(sp = Spec.make ()) ctl ops =
  List.iteri
    (fun i op ->
      let want = Spec.exec sp op in
      let got = Controller.exec ctl op in
      if not (Op.outcome_equal want got) then
        Alcotest.failf "op %d %s: spec %s, RAE %s (recoveries so far: %d)" i (Op.to_string op)
          (Format.asprintf "%a" Op.pp_outcome want)
          (Format.asprintf "%a" Op.pp_outcome got)
          (Controller.stats ctl).Controller.recoveries)
    ops;
  if expect_recoveries then
    Alcotest.(check bool) "at least one recovery happened" true
      ((Controller.stats ctl).Controller.recoveries > 0);
  Alcotest.(check (option Alcotest.string)) "not degraded" None (Controller.degraded ctl)

let assert_same_tree sp ctl =
  match
    ( Rae_workload.Snapshot.capture ~exec:Spec.exec sp,
      Rae_workload.Snapshot.capture ~exec:Controller.exec ctl )
  with
  | Ok a, Ok b ->
      if not (Rae_workload.Snapshot.equal a b) then
        Alcotest.failf "final trees differ: %s"
          (String.concat "; " (Rae_workload.Snapshot.diff a b))
  | Error e, _ | _, Error e -> Alcotest.failf "walk failed: %s" e

(* ---- healthy-path behaviour ---- *)

let test_passthrough_no_bugs () =
  let _disk, _dev, ctl = mk () in
  let rng = Rae_util.Rng.create 1L in
  assert_matches_spec ctl (Rae_workload.Workload.uniform rng ~count:400);
  Alcotest.(check int) "no recoveries" 0 (Controller.stats ctl).Controller.recoveries

let test_oplog_prunes_at_commit () =
  let _disk, _dev, ctl = mk () in
  ignore (ok (Controller.create ctl (p "/a") ~mode:0o644));
  ignore (ok (Controller.create ctl (p "/b") ~mode:0o644));
  Alcotest.(check int) "window grows" 2 (Controller.stats ctl).Controller.window;
  ignore (ok (Controller.sync ctl));
  Alcotest.(check int) "window pruned at commit" 0 (Controller.stats ctl).Controller.window;
  Alcotest.(check bool) "discards counted" true
    ((Controller.stats ctl).Controller.total_discarded >= 2)

(* ---- masking each bug class ---- *)

let test_mask_panic_bug () =
  let _disk, _dev, ctl = mk ~bugs:(arm [ "crafted-name-panic" ]) () in
  ignore (ok (Controller.mkdir ctl (p "/d") ~mode:0o755));
  (* This op panics the base; RAE must mask it. *)
  let ino = Controller.create ctl (p "/d/pwn") ~mode:0o644 in
  Alcotest.(check bool) "operation succeeded" true (Result.is_ok ino);
  Alcotest.(check int) "one recovery" 1 (Controller.stats ctl).Controller.recoveries;
  (* The created file is really there, on a fully working filesystem. *)
  Alcotest.(check bool) "visible afterwards" true
    (Result.is_ok (Controller.lookup ctl (p "/d/pwn")));
  ignore (ok (Controller.create ctl (p "/d/after") ~mode:0o644));
  Alcotest.(check (list string)) "directory consistent" [ "after"; "pwn" ]
    (ok (Controller.readdir ctl (p "/d")))

let test_mask_deterministic_nth_panic () =
  let _disk, _dev, ctl = mk ~bugs:(arm [ "dx-hash-panic" ]) () in
  ignore (ok (Controller.create ctl (p "/f") ~mode:0o644));
  (* The 40th lookup panics. *)
  for _ = 1 to 45 do
    Alcotest.(check bool) "every lookup answered" true
      (Result.is_ok (Controller.lookup ctl (p "/f")))
  done;
  Alcotest.(check int) "exactly one recovery" 1 (Controller.stats ctl).Controller.recoveries

let test_mask_warn_bug () =
  let _disk, _dev, ctl = mk ~bugs:(arm [ "extent-status-warn" ]) () in
  ignore (ok (Controller.create ctl (p "/f") ~mode:0o644));
  for i = 1 to 6 do
    Alcotest.(check bool) "truncate ok" true (Result.is_ok (Controller.truncate ctl (p "/f") ~size:i))
  done;
  Alcotest.(check int) "warn triggered recovery" 1 (Controller.stats ctl).Controller.recoveries;
  (match Controller.last_recovery ctl with
  | Some r -> (
      match r.Report.r_trigger with
      | Report.Warning_storm { bug; _ } -> Alcotest.(check string) "trigger" "extent-status-warn" bug
      | other -> Alcotest.failf "wrong trigger %s" (Report.trigger_to_string other))
  | None -> Alcotest.fail "no recovery report")

let test_warn_coinciding_with_commit () =
  (* A WARN on the very operation that triggers the group commit: the
     window is already durable and validated, so the controller must NOT
     replay it (that would re-execute durable ops); it accepts the result
     and continues. *)
  let _disk, _dev, ctl =
    mk
      ~config:{ Base.default_config with Base.commit_interval = 5 }
      ~bugs:(arm [ "extent-status-warn" ])
      ()
  in
  let sp = Spec.make () in
  let step op =
    let want = Spec.exec sp op and got = Controller.exec ctl op in
    Alcotest.(check bool) (Op.to_string op) true (Op.outcome_equal want got)
  in
  step (Op.Create (p "/f", 0o644)) (* mutation 1 *);
  List.iter (fun i -> step (Op.Truncate (p "/f", i))) [ 1; 2; 3 ] (* mutations 2-4 *);
  (* Mutation 5 = 5th truncate: fires the WARN *and* the interval commit. *)
  step (Op.Truncate (p "/f", 4));
  Alcotest.(check int) "no recovery for a post-commit warn" 0
    (Controller.stats ctl).Controller.recoveries;
  Alcotest.(check int) "window pruned by the commit" 0 (Controller.stats ctl).Controller.window;
  (* Life goes on, consistently. *)
  step (Op.Truncate (p "/f", 5));
  step (Op.Stat (p "/f"));
  Alcotest.(check (option Alcotest.string)) "not degraded" None (Controller.degraded ctl)

let test_mask_silent_corruption () =
  (* Corruption is injected on the 30th create and detected at the commit
     barrier; RAE recovers and the application never notices. *)
  let _disk, _dev, ctl =
    mk
      ~config:{ Base.default_config with Base.commit_interval = 10 }
      ~bugs:(arm [ "mballoc-freecount" ])
      ()
  in
  let sp = Spec.make () in
  for i = 1 to 40 do
    let op = Op.Create (p (Printf.sprintf "/f%03d" i), 0o644) in
    let want = Spec.exec sp op and got = Controller.exec ctl op in
    Alcotest.(check bool) (Printf.sprintf "create %d matches spec" i) true
      (Op.outcome_equal want got)
  done;
  Alcotest.(check bool) "recovered from validation failure" true
    ((Controller.stats ctl).Controller.recoveries >= 1);
  (match Controller.last_recovery ctl with
  | Some { Report.r_trigger = Report.Validation _; _ } -> ()
  | Some r -> Alcotest.failf "wrong trigger %s" (Report.trigger_to_string r.Report.r_trigger)
  | None -> Alcotest.fail "no report")

let test_mask_hang () =
  let _disk, _dev, ctl = mk ~bugs:(arm [ "fsync-deadlock" ]) () in
  let fd = ok (Controller.openf ctl (p "/f") Types.flags_create) in
  for i = 1 to 20 do
    ignore (ok (Controller.pwrite ctl fd ~off:(i * 10) "x"));
    Alcotest.(check bool) (Printf.sprintf "fsync %d ok" i) true
      (Result.is_ok (Controller.fsync ctl fd))
  done;
  Alcotest.(check int) "hang recovered once" 1 (Controller.stats ctl).Controller.recoveries;
  (match Controller.last_recovery ctl with
  | Some r ->
      Alcotest.(check bool) "fsync was delegated to the rebooted base" true
        r.Report.r_delegated_sync
  | None -> Alcotest.fail "no report")

(* A runtime error in the delegated sync is a base runtime error like any
   other: it starts a fresh recovery, the retries are bounded, and past
   the bound the sync returns EIO.  Nothing escapes, and the controller
   keeps serving.  At [prob = 1.0] every fsync panics, retries included;
   at [prob = 0.2] the rounds mix clean fsyncs, single recoveries and
   nested ones. *)
let test_fault_in_delegated_sync () =
  let run ~prob ~rounds =
    let fsync_panic =
      {
        Bug_registry.id = "fsync-panic";
        determinism = Bug_registry.Non_deterministic;
        trigger = Bug_registry.With_probability (Op.K_fsync, prob);
        consequence = Bug_registry.Panic;
        modeled_after = "a panic in the fsync path";
      }
    in
    let _disk, _dev, ctl =
      mk ~bugs:(Bug_registry.arm ~rng:(Rae_util.Rng.create 5L) [ fsync_panic ]) ()
    in
    let fd = ok (Controller.openf ctl (p "/f") Types.flags_create) in
    let recoveries () = (Controller.stats ctl).Controller.recoveries in
    let eio = ref 0 in
    for i = 0 to rounds - 1 do
      ignore (ok (Controller.pwrite ctl fd ~off:(4 * i) "data"));
      let before = recoveries () in
      (match Controller.fsync ctl fd with
      | Ok () -> ()
      | Error Errno.EIO -> incr eio
      | Error e -> Alcotest.failf "fsync %d: %s" i (Errno.to_string e));
      let n = recoveries () - before in
      if n > 4 then Alcotest.failf "fsync %d took %d recoveries" i n
    done;
    Alcotest.(check (option Alcotest.string)) "not degraded" None (Controller.degraded ctl);
    Alcotest.(check string) "/f readable"
      (String.concat "" (List.init rounds (fun _ -> "data")))
      (ok (Controller.pread ctl fd ~off:0 ~len:(4 * rounds)));
    (!eio, recoveries ())
  in
  let eio, recoveries = run ~prob:1.0 ~rounds:1 in
  Alcotest.(check int) "the fsync returned EIO" 1 eio;
  Alcotest.(check bool) "recoveries happened" true (recoveries >= 1);
  let _eio, recoveries = run ~prob:0.2 ~rounds:500 in
  Alcotest.(check bool) "recoveries happened" true (recoveries >= 1)

let test_mask_nondeterministic_bug () =
  let _disk, _dev, ctl = mk ~bugs:(arm [ "rename-race-panic" ]) () in
  ignore (ok (Controller.create ctl (p "/f0") ~mode:0o644));
  for i = 0 to 199 do
    Alcotest.(check bool) "rename ok" true
      (Result.is_ok
         (Controller.rename ctl (p (Printf.sprintf "/f%d" i)) (p (Printf.sprintf "/f%d" (i + 1)))))
  done;
  Alcotest.(check bool) "racy bug recovered at least once" true
    ((Controller.stats ctl).Controller.recoveries > 0);
  Alcotest.(check bool) "file survived 200 renames" true
    (Result.is_ok (Controller.lookup ctl (p "/f200")))

(* ---- state reconstruction fidelity ---- *)

let test_fd_survives_recovery () =
  let _disk, _dev, ctl = mk ~bugs:(arm [ "crafted-name-panic" ]) () in
  let fd = ok (Controller.openf ctl (p "/log") Types.flags_create) in
  ignore (ok (Controller.pwrite ctl fd ~off:0 "before-crash "));
  (* Trigger a panic on an unrelated operation. *)
  ignore (Controller.create ctl (p "/pwn") ~mode:0o644);
  Alcotest.(check int) "recovered" 1 (Controller.stats ctl).Controller.recoveries;
  (* The application's descriptor still works, with the data intact. *)
  ignore (ok (Controller.pwrite ctl fd ~off:13 "after-crash"));
  Alcotest.(check string) "descriptor and data preserved" "before-crash after-crash"
    (ok (Controller.pread ctl fd ~off:0 ~len:100));
  ignore (ok (Controller.close ctl fd))

let test_orphan_survives_recovery () =
  let _disk, _dev, ctl = mk ~bugs:(arm [ "crafted-name-panic" ]) () in
  let fd = ok (Controller.openf ctl (p "/doomed") Types.flags_create) in
  ignore (ok (Controller.pwrite ctl fd ~off:0 "orphan data"));
  ignore (ok (Controller.unlink ctl (p "/doomed")));
  ignore (Controller.create ctl (p "/pwn") ~mode:0o644) (* panic + recovery *);
  Alcotest.(check string) "unlinked-but-open file survives recovery" "orphan data"
    (ok (Controller.pread ctl fd ~off:0 ~len:100));
  ignore (ok (Controller.close ctl fd))

let test_inode_and_fd_numbers_stable () =
  (* Paper §2.2: "the inode number of a file and file descriptor numbers
     must be identical to the applications for completed operations". *)
  let _disk, _dev, ctl = mk ~bugs:(arm [ "crafted-name-panic" ]) () in
  let ino_a = ok (Controller.create ctl (p "/a") ~mode:0o644) in
  let fd_a = ok (Controller.openf ctl (p "/a") Types.flags_ro) in
  ignore (Controller.create ctl (p "/pwn") ~mode:0o644) (* recovery *);
  let st = ok (Controller.fstat ctl fd_a) in
  Alcotest.(check int) "ino unchanged through recovery" ino_a st.Types.st_ino;
  let st2 = ok (Controller.stat ctl (p "/a")) in
  Alcotest.(check int) "path agrees" ino_a st2.Types.st_ino

let test_recovery_report_contents () =
  let _disk, _dev, ctl = mk ~bugs:(arm [ "crafted-name-panic" ]) () in
  ignore (ok (Controller.create ctl (p "/w1") ~mode:0o644));
  ignore (ok (Controller.create ctl (p "/w2") ~mode:0o644));
  ignore (Controller.unlink ctl (p "/missing")) (* an Error op: skipped in replay *);
  ignore (Controller.create ctl (p "/pwn") ~mode:0o644);
  match Controller.last_recovery ctl with
  | None -> Alcotest.fail "no recovery report"
  | Some r ->
      Alcotest.(check int) "window covers the three ops" 3 r.Report.r_window;
      Alcotest.(check int) "two replayed" 2 r.Report.r_replayed;
      Alcotest.(check int) "one skipped (errored in base)" 1 r.Report.r_skipped;
      Alcotest.(check bool) "handoff carried blocks" true (r.Report.r_handoff_blocks > 0);
      Alcotest.(check bool) "recovered" true (r.Report.r_outcome = Report.Recovered);
      Alcotest.(check bool) "report prints" true
        (String.length (Format.asprintf "%a" Report.pp_recovery r) > 0)

(* Recovery leaves its hand-off dirty in the base and resumes: a power
   cut between resume and the deferred commit finds the last commit's
   state, S0, on disk.  A copy of the device taken there mounts to S0's
   tree, and fsck finds it clean. *)
let test_power_cut_before_deferred_commit () =
  let disk, _dev, ctl = mk ~bugs:(arm [ "crafted-name-panic" ]) () in
  let sp = Spec.make () in
  assert_matches_spec ~sp ctl [ Op.Mkdir (p "/d", 0o755); Op.Create (p "/d/s0", 0o644); Op.Sync ];
  let at_s0 = ok (Rae_workload.Snapshot.capture ~exec:Spec.exec sp) in
  ignore (ok (Controller.create ctl (p "/d/w1") ~mode:0o644));
  ignore (ok (Controller.create ctl (p "/pwn") ~mode:0o644)) (* recovery *);
  Alcotest.(check int) "recovered" 1 (Controller.stats ctl).Controller.recoveries;
  Alcotest.(check int) "window kept, with the in-flight op" 2
    (Controller.stats ctl).Controller.window;
  let copy = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:(Disk.nblocks disk) () in
  Disk.restore copy (Disk.snapshot disk);
  let dev2 = Device.of_disk copy in
  let base2 = ok (Base.mount dev2) in
  (match Rae_workload.Snapshot.capture ~exec:Base.exec base2 with
  | Ok tree ->
      if not (Rae_workload.Snapshot.equal at_s0 tree) then
        Alcotest.failf "the cut image is not S0: %s"
          (String.concat "; " (Rae_workload.Snapshot.diff at_s0 tree))
  | Error e -> Alcotest.failf "walk failed: %s" e);
  Alcotest.(check bool) "image clean" true
    (Rae_fsck.Fsck.clean (Rae_fsck.Fsck.check_device dev2))

(* The op that reaches [ckpt_fold_interval] ops after resume commits the
   hand-off, even when every op in between is a pure read: the window
   prunes there, the checkpoint re-cuts, and a process crash right after
   keeps the whole window. *)
let test_deferred_commit_makes_window_durable () =
  List.iter
    (fun ckpt_enabled ->
      let policy = { Controller.default_policy with Controller.ckpt_enabled } in
      let interval = policy.Controller.ckpt_fold_interval in
      let _disk, dev, ctl = mk ~policy ~bugs:(arm [ "crafted-name-panic" ]) () in
      let commits () = (Base.stats (Controller.base ctl)).Base.commits in
      let window () = (Controller.stats ctl).Controller.window in
      ignore (ok (Controller.create ctl (p "/w1") ~mode:0o644));
      ignore (ok (Controller.create ctl (p "/pwn") ~mode:0o644)) (* recovery *);
      let at_resume = commits () in
      Alcotest.(check bool) "spent until the commit" false (Controller.checkpoint_valid ctl);
      for _ = 1 to interval - 1 do
        ignore (ok (Controller.stat ctl (p "/w1")))
      done;
      Alcotest.(check int) "no commit inside the bound" at_resume (commits ());
      Alcotest.(check int) "window kept" (2 + interval - 1) (window ());
      ignore (ok (Controller.stat ctl (p "/w1")));
      Alcotest.(check int) "the op at the bound commits" (at_resume + 1) (commits ());
      Alcotest.(check int) "window pruned" 0 (window ());
      Alcotest.(check bool) "checkpoint re-cut" ckpt_enabled (Controller.checkpoint_valid ctl);
      (* Simulate a process crash: fresh mount of the same device. *)
      let base2 = ok (Base.mount dev) in
      Alcotest.(check bool) "w1 durable" true (Result.is_ok (Base.lookup base2 (p "/w1")));
      Alcotest.(check bool) "pwn durable" true (Result.is_ok (Base.lookup base2 (p "/pwn")));
      Alcotest.(check bool) "image clean" true
        (Rae_fsck.Fsck.clean (Rae_fsck.Fsck.check_device dev)))
    [ false; true ]

(* A data block the shadow allocates and frees again inside the window
   stays in its overlay, and so in the hand-off, though nothing points at
   it.  The base's allocator may hand it out again before the deferred
   commit: the hand-off must not carry its stale image into that commit,
   over the new owner's bytes. *)
let test_block_freed_in_window_reused () =
  let _disk, dev, ctl = mk ~bugs:(arm [ "crafted-name-panic" ]) () in
  ignore (ok (Controller.symlink ctl ~target:"/old-target" (p "/a")));
  ignore (ok (Controller.unlink ctl (p "/a")));
  ignore (ok (Controller.create ctl (p "/pwn") ~mode:0o644)) (* recovery *);
  ignore (ok (Controller.symlink ctl ~target:"/new-target" (p "/b")));
  ignore (ok (Controller.sync ctl));
  let base2 = ok (Base.mount dev) in
  Alcotest.(check string) "the new owner's bytes" "/new-target" (ok (Base.readlink base2 (p "/b")));
  Alcotest.(check bool) "image clean" true
    (Rae_fsck.Fsck.clean (Rae_fsck.Fsck.check_device dev))

(* A second trigger inside the first recovery's bound: the checkpoint is
   spent, so the second recovery runs cold from S0 over the first window,
   the first in-flight op (against the shadow's recorded outcome) and the
   ops after it.  The run stays equal to the spec, and a sync leaves a
   clean image. *)
let test_two_recoveries_before_deferred_commit () =
  List.iter
    (fun ckpt_enabled ->
      let policy = { Controller.default_policy with Controller.ckpt_enabled } in
      let _disk, dev, ctl = mk ~policy ~bugs:(arm [ "crafted-name-panic" ]) () in
      let sp = Spec.make () in
      assert_matches_spec ~sp ctl [ Op.Mkdir (p "/d", 0o755); Op.Create (p "/d/a", 0o644); Op.Sync ];
      let fd =
        match Spec.exec sp (Op.Open (p "/d/log", Types.flags_create)) with
        | Ok (Op.Fd fd) -> fd
        | _ -> Alcotest.fail "expected a descriptor"
      in
      Alcotest.(check int) "the spec's descriptor" fd
        (ok (Controller.openf ctl (p "/d/log") Types.flags_create));
      assert_matches_spec ~sp ctl [ Op.Pwrite (fd, 0, "first"); Op.Create (p "/d/pwn", 0o644) ];
      let r1 =
        match Controller.last_recovery ctl with Some r -> r | None -> Alcotest.fail "no recovery"
      in
      let after =
        [ Op.Pwrite (fd, 5, "second"); Op.Rename (p "/d/a", p "/d/b"); Op.Mkdir (p "/e", 0o755) ]
      in
      assert_matches_spec ~sp ctl (after @ [ Op.Create (p "/e/pwn", 0o644) ]);
      (match Controller.recoveries ctl with
      | [ _; r2 ] ->
          Alcotest.(check bool) "first seeded with the checkpoint on" ckpt_enabled r1.Report.r_seeded;
          Alcotest.(check bool) "second cold" false r2.Report.r_seeded;
          Alcotest.(check int) "second window: first window, in-flight op, ops after"
            (r1.Report.r_window + 1 + List.length after) r2.Report.r_window;
          Alcotest.(check bool) "recovered" true (r2.Report.r_outcome = Report.Recovered)
      | l -> Alcotest.failf "expected 2 recoveries, saw %d" (List.length l));
      assert_matches_spec ~sp ctl [ Op.Pread (fd, 0, 64); Op.Close fd ];
      ignore (ok (Controller.sync ctl));
      assert_same_tree sp ctl;
      Alcotest.(check bool) "image clean" true
        (Rae_fsck.Fsck.clean (Rae_fsck.Fsck.check_device dev)))
    [ false; true ]

(* ---- full-workload availability (experiment E8's core assertion) ---- *)

let test_availability_under_all_bugs () =
  (* Arm every deterministic bug except the wrong-result one (which by
     design produces an application-visible wrong answer, detectable only
     by cross-checking) and run every profile: all outcomes must match the
     spec exactly. *)
  (* isize-extension and stat-size-skew are excluded: both are in the
     app-visible-before-detection class (the paper's undetected NoCrash
     cell) — the application can observe the corruption in the op that
     triggers it, before any commit barrier can catch it. *)
  let ids =
    [
      "dx-hash-panic";
      "extent-status-warn";
      "mballoc-freecount";
      "dirent-reclen-zero";
      "orphan-close-uaf";
      "fsync-deadlock";
    ]
  in
  List.iter
    (fun profile ->
      let _disk, _dev, ctl =
        mk ~config:{ Base.default_config with Base.commit_interval = 16 } ~bugs:(arm ids) ()
      in
      let rng = Rae_util.Rng.create 77L in
      let ops = Rae_workload.Workload.ops profile rng ~count:300 in
      assert_matches_spec ctl ops)
    Rae_workload.Workload.all_profiles

let prop_availability_random_traces =
  QCheck2.Test.make ~name:"RAE == spec under armed bugs (random traces)" ~count:15
    QCheck2.Gen.(pair ui64 (int_range 50 250))
    (fun (seed, count) ->
      match Rae_core.Differential.availability ~seed ~count with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_reportf "%s (seed %Ld, %d ops)" msg seed count)

let test_isize_corruption_caught_and_recovered () =
  (* isize-extension oversizes a cached inode.  The window between the
     corruption and the next commit barrier may surface wrong results to
     the application (EFBIG on appends) — the paper's undetected-error
     window — but the commit validation must catch it, RAE must recover,
     and the filesystem must be fully consistent afterwards. *)
  let _disk, dev, ctl =
    mk ~config:{ Base.default_config with Base.commit_interval = 8 } ~bugs:(arm [ "isize-extension" ]) ()
  in
  let fd = ok (Controller.openf ctl (p "/victim") Types.flags_create) in
  for i = 0 to 59 do
    (* pwrite #50 fires the bug; outcomes in the window may be wrong. *)
    ignore (Controller.pwrite ctl fd ~off:(i * 8) "payload!")
  done;
  Alcotest.(check bool) "validation recovery happened" true
    (List.exists
       (fun r -> match r.Report.r_trigger with Report.Validation _ -> true | _ -> false)
       (Controller.recoveries ctl));
  Alcotest.(check (option Alcotest.string)) "not degraded" None (Controller.degraded ctl);
  (* Post-recovery the file works and the image is consistent. *)
  ignore (ok (Controller.pwrite ctl fd ~off:0 "healed!!"));
  ignore (ok (Controller.close ctl fd));
  ignore (ok (Controller.sync ctl));
  Alcotest.(check bool) "fsck clean after recovery" true
    (Rae_fsck.Fsck.clean (Rae_fsck.Fsck.check_device dev))

let prop_recovery_preserves_whole_tree =
  (* The strongest reconstruction property: inject a panic at a random
     point in a random trace, then walk the ENTIRE tree (kinds, sizes,
     nlinks, modes, full contents) through the public API and compare with
     the specification. *)
  QCheck2.Test.make ~name:"post-recovery tree identical to spec" ~count:15
    QCheck2.Gen.(pair ui64 (int_range 1 30))
    (fun (seed, nth) ->
      let bug =
        {
          Bug_registry.id = "prop-panic";
          determinism = Bug_registry.Deterministic;
          trigger = Bug_registry.Nth_op_of_kind (Op.K_pwrite, nth);
          consequence = Bug_registry.Panic;
          modeled_after = "property-test injection";
        }
      in
      let _disk, _dev, ctl =
        mk ~config:{ Base.default_config with Base.commit_interval = 16 }
          ~bugs:(Bug_registry.arm [ bug ]) ()
      in
      let sp = Spec.make () in
      let ops = Rae_workload.Workload.uniform (Rae_util.Rng.create seed) ~count:150 in
      List.iter
        (fun op ->
          let want = Spec.exec sp op and got = Controller.exec ctl op in
          if not (Op.outcome_equal want got) then
            QCheck2.Test.fail_reportf "outcome mismatch on %s" (Op.to_string op))
        ops;
      let snap_spec = Rae_workload.Snapshot.capture ~exec:Spec.exec sp in
      let snap_rae = Rae_workload.Snapshot.capture ~exec:Controller.exec ctl in
      match (snap_spec, snap_rae) with
      | Ok a, Ok b ->
          if Rae_workload.Snapshot.equal a b then true
          else
            QCheck2.Test.fail_reportf "trees differ: %s"
              (String.concat "; " (Rae_workload.Snapshot.diff a b))
      | Error e, _ | _, Error e -> QCheck2.Test.fail_reportf "walk failed: %s" e)

(* ---- warm-shadow checkpointing ---- *)

let ckpt_policy =
  { Controller.default_policy with Controller.ckpt_enabled = true; Controller.ckpt_fold_interval = 8 }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_checkpoint_refuses_uncommitted_window () =
  (* Disabled by policy: the API must say so, not silently no-op. *)
  let _disk, _dev, plain = mk () in
  (match Controller.checkpoint_now plain with
  | Error msg ->
      Alcotest.(check bool) "mentions policy" true (contains msg "disabled")
  | Ok () -> Alcotest.fail "checkpoint_now must fail when disabled");
  (* Enabled: a cut is refused while the op window holds an uncommitted
     suffix — the disk does not yet reflect the recorded ops, so a cut
     would capture an S0 the oplog is not relative to. *)
  let _disk, _dev, ctl = mk ~policy:ckpt_policy () in
  Alcotest.(check bool) "initial cut at mount" true (Controller.checkpoint_valid ctl);
  ignore (ok (Controller.create ctl (p "/a") ~mode:0o644));
  (match Controller.checkpoint_now ctl with
  | Error msg ->
      Alcotest.(check bool) "mentions uncommitted window" true (contains msg "uncommitted")
  | Ok () -> Alcotest.fail "cut must refuse a non-empty op window");
  (* After a sync the window is durable and empty: the cut succeeds. *)
  ignore (ok (Controller.sync ctl));
  (match Controller.checkpoint_now ctl with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "cut after sync failed: %s" msg);
  Alcotest.(check bool) "still valid" true (Controller.checkpoint_valid ctl);
  match Controller.checkpoint_stats ctl with
  | None -> Alcotest.fail "stats must exist when enabled"
  | Some s -> Alcotest.(check bool) "cuts counted" true (s.Rae_core.Checkpoint.cuts >= 2)

let test_seeded_recovery_replays_only_delta () =
  (* Long uncommitted window, folded as it grows: recovery must seed
     from the warm shadow and replay only the unfolded suffix. *)
  let _disk, _dev, ctl =
    mk ~policy:ckpt_policy
      ~config:{ Base.default_config with Base.commit_interval = max_int }
      ~bugs:(arm [ "crafted-name-panic" ])
      ()
  in
  for i = 1 to 20 do
    ignore (ok (Controller.create ctl (p (Printf.sprintf "/f%d" i)) ~mode:0o644))
  done;
  let window = (Controller.stats ctl).Controller.window in
  Alcotest.(check int) "window holds the whole trace" 20 window;
  (* The panic: seeded recovery, Δ replay. *)
  ignore (ok (Controller.create ctl (p "/pwn") ~mode:0o644));
  Alcotest.(check int) "one recovery" 1 (Controller.stats ctl).Controller.recoveries;
  Alcotest.(check (option Alcotest.string)) "not degraded" None (Controller.degraded ctl);
  (match Controller.last_recovery ctl with
  | None -> Alcotest.fail "no recovery report"
  | Some r ->
      Alcotest.(check bool) "report marked seeded" true r.Report.r_seeded;
      Alcotest.(check bool)
        (Printf.sprintf "replayed %d < window %d" r.Report.r_replayed window)
        true
        (r.Report.r_replayed < window));
  (match Controller.checkpoint_stats ctl with
  | None -> Alcotest.fail "checkpoint stats missing"
  | Some s ->
      Alcotest.(check int) "seeded once" 1 s.Rae_core.Checkpoint.seeded;
      Alcotest.(check bool) "folds happened" true (s.Rae_core.Checkpoint.folds >= 1);
      Alcotest.(check int) "no cold fallback" 0 s.Rae_core.Checkpoint.fallbacks);
  (* The recovered state is complete: every file, including the one that
     triggered the panic, is visible on a working filesystem. *)
  for i = 1 to 20 do
    Alcotest.(check bool) "pre-panic file visible" true
      (Result.is_ok (Controller.lookup ctl (p (Printf.sprintf "/f%d" i))))
  done;
  Alcotest.(check bool) "panic op's file visible" true
    (Result.is_ok (Controller.lookup ctl (p "/pwn")))

(* The cache-invalidation adversary across seeded recoveries: every
   namespace mutation that could leave a warm-shadow fast-path cache
   stale (resolutions, dirent-index entries, symlink targets), each
   followed by the lookup that would expose it, with panics in between
   ("pwn" components trigger crafted-name-panic).  A stale cache in the
   warm shadow surfaces as a spec divergence after a seeded recovery. *)
let adversary_ops =
  [
    Op.Mkdir (p "/a", 0o755);
    Op.Mkdir (p "/a/b", 0o755);
    Op.Create (p "/a/b/f", 0o644);
    Op.Lookup (p "/a/b/f");
    Op.Stat (p "/a/b");
    Op.Create (p "/pwn", 0o644) (* panic #1: recovery seeds mid-warm *);
    Op.Rename (p "/a/b", p "/a/c");
    Op.Lookup (p "/a/b/f") (* must miss: resolution moved *);
    Op.Lookup (p "/a/c/f");
    Op.Unlink (p "/a/c/f");
    Op.Lookup (p "/a/c/f") (* must miss: unlinked *);
    Op.Mkdir (p "/a/c/f", 0o755) (* same name, different kind *);
    Op.Stat (p "/a/c/f");
    Op.Unlink (p "/a/c/pwn") (* panic #2 (ENOENT path still trips the trigger) *);
    Op.Rmdir (p "/a/c/f");
    Op.Readdir (p "/a/c/f") (* must miss: removed *);
    Op.Readdir (p "/a/c");
    Op.Symlink ("/a/c", p "/ln");
    Op.Stat (p "/ln");
    Op.Unlink (p "/ln");
    Op.Symlink ("/nowhere", p "/ln");
    Op.Stat (p "/ln") (* must ENOENT through the replaced link *);
    Op.Create (p "/a/c/g", 0o644);
    Op.Lookup (p "/a/c/g");
  ]

let test_invalidation_adversary () =
  let _disk, _dev, ctl =
    mk ~policy:ckpt_policy
      ~config:{ Base.default_config with Base.commit_interval = 16 }
      ~bugs:(arm [ "crafted-name-panic" ])
      ()
  in
  let sp = Spec.make () in
  assert_matches_spec ~expect_recoveries:true ~sp ctl adversary_ops;
  (match Controller.checkpoint_stats ctl with
  | Some s ->
      Alcotest.(check bool) "seeded" true (s.Rae_core.Checkpoint.seeded >= 1);
      Alcotest.(check int) "no cold fallback" 0 s.Rae_core.Checkpoint.fallbacks
  | None -> Alcotest.fail "checkpoint stats missing");
  assert_same_tree sp ctl

(* A cut only names its S0; the attach waits for the first fold or seed.
   So a stream of commits with no fold in between — every one of them
   re-cuts — reads nothing through the checkpoint's device, and a recovery
   seeded from such a cut attaches then, descriptors included. *)
let test_cuts_defer_the_attach () =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:2048 () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:256 ()));
  let base = ok (Base.mount ~bugs:(arm [ "crafted-name-panic" ]) dev) in
  let counted, io = Device.counting dev in
  let policy = { ckpt_policy with Controller.ckpt_fold_interval = 1000 } in
  let ctl = Controller.make ~policy ~device:counted base in
  let log = ok (Controller.openf ctl (p "/log") Types.flags_create) in
  for i = 1 to 40 do
    let path = p (Printf.sprintf "/m%d" i) in
    let fd = ok (Controller.openf ctl path Types.flags_create) in
    ignore (ok (Controller.pwrite ctl fd ~off:0 "mail"));
    ignore (ok (Controller.pwrite ctl log ~off:(4 * (i - 1)) "line"));
    ignore (ok (Controller.fsync ctl fd));
    ignore (ok (Controller.close ctl fd))
  done;
  let stats () = Option.get (Controller.checkpoint_stats ctl) in
  Alcotest.(check bool) "every fsync re-cut" true ((stats ()).Rae_core.Checkpoint.cuts >= 40);
  Alcotest.(check int) "no fold" 0 (stats ()).Rae_core.Checkpoint.folds;
  Alcotest.(check bool) "checkpoint valid" true (Controller.checkpoint_valid ctl);
  Alcotest.(check (pair int int)) "cuts read and wrote nothing" (0, 0) (io ());
  (* The panic: recovery seeds from the never-attached cut. *)
  ignore (ok (Controller.create ctl (p "/pwn") ~mode:0o644));
  Alcotest.(check int) "seeded" 1 (stats ()).Rae_core.Checkpoint.seeded;
  Alcotest.(check int) "no cold fallback" 0 (stats ()).Rae_core.Checkpoint.fallbacks;
  Alcotest.(check bool) "the seed attached" true (fst (io ()) > 0);
  Alcotest.(check string) "open fd survives" (String.concat "" (List.init 40 (fun _ -> "line")))
    (ok (Controller.pread ctl log ~off:0 ~len:1000));
  Alcotest.(check bool) "panic op's file visible" true
    (Result.is_ok (Controller.lookup ctl (p "/pwn")))

(* Pure reads leave the warm fold: of an eight-op window that opens a
   committed file read-only, reads it six ways and closes it, the fold
   executes only the open and the close, while its cursor passes all
   eight.  A later panic seeds from that fold, replays only what came
   after it, and recovers the spec's tree with an S0 descriptor intact. *)
let test_fold_skips_pure_reads () =
  let _disk, _dev, ctl =
    mk ~policy:ckpt_policy
      ~config:{ Base.default_config with Base.commit_interval = max_int }
      ~bugs:(arm [ "crafted-name-panic" ])
      ()
  in
  let sp = Spec.make () in
  let both op =
    let want = Spec.exec sp op and got = Controller.exec ctl op in
    if not (Op.outcome_equal want got) then
      Alcotest.failf "%s: spec %a, RAE %a" (Op.to_string op) Op.pp_outcome want Op.pp_outcome got;
    got
  in
  let fd_of = function Ok (Op.Fd fd) -> fd | _ -> Alcotest.fail "expected a descriptor" in
  ignore (both (Op.Create (p "/f", 0o644)));
  let w = fd_of (both (Op.Open (p "/f", Types.flags_rw))) in
  ignore (both (Op.Pwrite (w, 0, "hello")));
  ignore (both (Op.Close w));
  ignore (both (Op.Symlink ("/f", p "/ln")));
  let log = fd_of (both (Op.Open (p "/log", Types.flags_create))) in
  (* The commit re-cuts: S0 holds /f, /ln and /log, with /log open. *)
  ignore (both Op.Sync);
  let stats () = Option.get (Controller.checkpoint_stats ctl) in
  Alcotest.(check int) "nothing folded before the window" 0 (stats ()).Rae_core.Checkpoint.folds;
  let fd = fd_of (both (Op.Open (p "/f", Types.flags_ro))) in
  List.iter
    (fun op -> ignore (both op))
    [
      Op.Pread (fd, 0, 16);
      Op.Stat (p "/f");
      Op.Fstat fd;
      Op.Lookup (p "/f");
      Op.Readdir [];
      Op.Readlink (p "/ln");
      Op.Close fd;
    ];
  let s = stats () in
  Alcotest.(check int) "one fold" 1 s.Rae_core.Checkpoint.folds;
  Alcotest.(check int) "only the open and the close folded" 2 s.Rae_core.Checkpoint.folded_ops;
  Alcotest.(check int) "no divergence" 0 s.Rae_core.Checkpoint.fold_divergences;
  ignore (both (Op.Pwrite (log, 0, "after the fold")));
  (* The panic: a seeded recovery whose Δ is the one write — the cursor
     passed all eight ops of the folded window. *)
  ignore (both (Op.Create (p "/pwn", 0o644)));
  (match Controller.last_recovery ctl with
  | Some r ->
      Alcotest.(check bool) "seeded" true r.Report.r_seeded;
      Alcotest.(check int) "window" 9 r.Report.r_window;
      Alcotest.(check int) "Δ replayed" 1 r.Report.r_replayed
  | None -> Alcotest.fail "no recovery report");
  Alcotest.(check int) "no cold fallback" 0 (stats ()).Rae_core.Checkpoint.fallbacks;
  ignore (both (Op.Pread (log, 0, 64)));
  ignore (both (Op.Readlink (p "/ln")));
  assert_same_tree sp ctl

(* ---- device errors in the warm checkpoint ----

   The base mounts a clean device; the controller — the warm checkpoint
   and the cold recovery shadow — reads through a fault plan, the same
   split "cuts defer the attach" uses.  A device error may cost the
   checkpoint, or end in a clean fail-stop, but it never escapes
   [Controller.exec] and never drops an acknowledged op. *)
let mk_faulty ?bugs ?bundle_dir ~policy plan =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:2048 () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:256 ()));
  let geometry =
    (ok (Rae_format.Reader.attach (fun blk -> Disk.read disk blk))).Rae_format.Reader.sb
      .Rae_format.Superblock.geometry
  in
  let base = ok (Base.mount ?bugs dev) in
  let device = Rae_block.Fault.wrap (Rae_block.Fault.create (plan geometry)) dev in
  Controller.make ~policy ?bundle_dir ~device base

let fold_every n = { ckpt_policy with Controller.ckpt_fold_interval = n }

let superblock_read_error ~from_nth ~count _ =
  [ Rae_block.Fault.Read_error { block = 0; from_nth; count } ]

let ckpt_stats ctl = Option.get (Controller.checkpoint_stats ctl)
let file i = p (Printf.sprintf "/f%d" i)

let test_device_error_in_fold_attach () =
  let ctl = mk_faulty ~policy:(fold_every 8) (superblock_read_error ~from_nth:1 ~count:1) in
  (* The 8th create is due to fold, and the fold's attach hits the fault:
     the client still gets the base's answer, the checkpoint is dropped. *)
  for i = 1 to 8 do
    ignore (ok (Controller.create ctl (file i) ~mode:0o644))
  done;
  Alcotest.(check int) "poisoned" 1 (ckpt_stats ctl).Rae_core.Checkpoint.poisons;
  Alcotest.(check int) "nothing folded" 0 (ckpt_stats ctl).Rae_core.Checkpoint.folds;
  Alcotest.(check bool) "checkpoint dropped" false (Controller.checkpoint_valid ctl);
  for i = 1 to 8 do
    ignore (ok (Controller.lookup ctl (file i)))
  done;
  (* The next commit re-cuts, and the spent fault no longer bites. *)
  ignore (ok (Controller.sync ctl));
  for i = 9 to 16 do
    ignore (ok (Controller.create ctl (file i) ~mode:0o644))
  done;
  Alcotest.(check bool) "checkpoint back" true (Controller.checkpoint_valid ctl);
  Alcotest.(check int) "folding again" 1 (ckpt_stats ctl).Rae_core.Checkpoint.folds

let test_device_error_in_seed_attach () =
  let ctl =
    mk_faulty ~bugs:(arm [ "crafted-name-panic" ]) ~policy:(fold_every 1000)
      (superblock_read_error ~from_nth:1 ~count:1)
  in
  for i = 1 to 5 do
    ignore (ok (Controller.create ctl (file i) ~mode:0o644))
  done;
  (* The panic seeds from a never-attached cut; the seed's attach hits the
     fault, and recovery falls back to the cold path from S0. *)
  ignore (ok (Controller.create ctl (p "/pwn") ~mode:0o644));
  Alcotest.(check int) "fell back" 1 (ckpt_stats ctl).Rae_core.Checkpoint.fallbacks;
  Alcotest.(check int) "not seeded" 0 (ckpt_stats ctl).Rae_core.Checkpoint.seeded;
  (match Controller.last_recovery ctl with
  | Some { Report.r_outcome = Report.Recovered; r_seeded = false; _ } -> ()
  | _ -> Alcotest.fail "expected a cold, successful recovery");
  Alcotest.(check bool) "healthy" true (Controller.health ctl = Rae_obs.Events.Healthy);
  for i = 1 to 5 do
    ignore (ok (Controller.lookup ctl (file i)))
  done;
  ignore (ok (Controller.lookup ctl (p "/pwn")))

let test_device_error_in_fold_read () =
  let ctl =
    mk_faulty ~bugs:(arm [ "crafted-name-panic" ]) ~policy:(fold_every 8) (fun g ->
        let block = g.Layout.inode_table_start in
        [ Rae_block.Fault.Read_error { block; from_nth = 1; count = 1 } ])
  in
  let sp = Spec.make () in
  (* The fold's first create reads the root inode and gets EIO: a
     divergence, which poisons the checkpoint. *)
  let ops = List.init 8 (fun i -> Op.Create (file (i + 1), 0o644)) in
  assert_matches_spec ~sp ctl ops;
  Alcotest.(check bool) "divergence seen" true
    ((ckpt_stats ctl).Rae_core.Checkpoint.fold_divergences >= 1);
  Alcotest.(check int) "poisoned" 1 (ckpt_stats ctl).Rae_core.Checkpoint.poisons;
  (* The panic recovers cold, from S0, and keeps every acknowledged create. *)
  assert_matches_spec ~expect_recoveries:true ~sp ctl [ Op.Create (p "/pwn", 0o644) ];
  (match Controller.last_recovery ctl with
  | Some { Report.r_outcome = Report.Recovered; r_seeded = false; r_replayed = 8; _ } -> ()
  | _ -> Alcotest.fail "expected a cold recovery replaying all eight creates");
  assert_same_tree sp ctl

let test_persistent_device_error_fails_stop () =
  let dir =
    let path = Filename.temp_file "rae-core-bundles" "" in
    Sys.remove path;
    path
  in
  let ctl =
    mk_faulty ~bugs:(arm [ "crafted-name-panic" ]) ~bundle_dir:dir ~policy:(fold_every 1000)
      (superblock_read_error ~from_nth:1 ~count:max_int)
  in
  for i = 1 to 5 do
    ignore (ok (Controller.create ctl (file i) ~mode:0o644))
  done;
  (* Neither the seed nor the cold path gets past the fault: fail-stop. *)
  (match Controller.create ctl (p "/pwn") ~mode:0o644 with
  | Error Errno.EIO -> ()
  | Ok _ -> Alcotest.fail "expected EIO, got a result"
  | Error e -> Alcotest.failf "expected EIO, got %s" (Errno.to_string e));
  Alcotest.(check int) "fell back first" 1 (ckpt_stats ctl).Rae_core.Checkpoint.fallbacks;
  Alcotest.(check bool) "degraded" true (Controller.degraded ctl <> None);
  Alcotest.(check bool) "health FAILSTOP" true (Controller.health ctl = Rae_obs.Events.Failstop);
  (match Controller.bundles ctl with
  | [ path ] -> (
      match Rae_obs.Blackbox.check_file path with
      | Ok s ->
          Alcotest.(check string) "bundle kind" Rae_obs.Blackbox.kind_failstop
            s.Rae_obs.Blackbox.s_kind
      | Error vs -> Alcotest.failf "bundle invalid: %s" (String.concat "; " vs))
  | l -> Alcotest.failf "expected one bundle, got %d" (List.length l));
  match Controller.lookup ctl (file 1) with
  | Error Errno.EIO -> ()
  | _ -> Alcotest.fail "a fail-stopped controller answers EIO"

(* A hand-off the commit barrier rejects still fails stop.  A bit flip in
   S0's /victim inode, on every read through the controller, is never
   decoded by the warm shadow, but the Δ replay's create of /x shares
   its inode-table block, so the hand-off carries it.  The download's
   barrier check rejects it, the seeded attempt falls back, the cold
   path's fsck rejects S0, and the controller fail-stops with one
   recovery and a FAILSTOP bundle, instead of resuming with a hand-off
   that every later commit would reject. *)
let test_rejected_handoff_fails_stop () =
  let dir =
    let path = Filename.temp_file "rae-core-bundles" "" in
    Sys.remove path;
    path
  in
  let victim_flip g =
    [
      Rae_block.Fault.Flip_on_read
        {
          block = g.Layout.inode_table_start;
          byte = Layout.inode_size + 8;
          bit = 0;
          from_nth = 1;
          count = max_int;
        };
    ]
  in
  let ctl =
    mk_faulty ~bugs:(arm [ "crafted-name-panic" ]) ~bundle_dir:dir ~policy:(fold_every 1000)
      victim_flip
  in
  Alcotest.(check int) "victim is inode 2" 2 (ok (Controller.create ctl (p "/victim") ~mode:0o644));
  ignore (ok (Controller.sync ctl));
  ignore (ok (Controller.create ctl (p "/x") ~mode:0o644));
  (match Controller.create ctl (p "/pwn") ~mode:0o644 with
  | Error Errno.EIO -> ()
  | Ok _ -> Alcotest.fail "expected EIO, got a result"
  | Error e -> Alcotest.failf "expected EIO, got %s" (Errno.to_string e));
  Alcotest.(check bool) "degraded" true (Controller.degraded ctl <> None);
  Alcotest.(check int) "one recovery" 1 (Controller.stats ctl).Controller.recoveries;
  let fallbacks =
    List.filter_map
      (fun e ->
        match e.Rae_obs.Events.body with
        | Rae_obs.Events.Ckpt_fallback { reason } -> Some reason
        | _ -> None)
      (Rae_obs.Events.tail (Controller.events ctl))
  in
  (match fallbacks with
  | [ reason ] ->
      Alcotest.(check bool) ("the download rejected it: " ^ reason) true
        (contains reason "metadata download")
  | l -> Alcotest.failf "expected one fallback, saw %d" (List.length l));
  (match Controller.bundles ctl with
  | [ path ] -> (
      match Rae_obs.Blackbox.check_file path with
      | Ok s ->
          Alcotest.(check string) "bundle kind" Rae_obs.Blackbox.kind_failstop
            s.Rae_obs.Blackbox.s_kind
      | Error vs -> Alcotest.failf "bundle invalid: %s" (String.concat "; " vs))
  | l -> Alcotest.failf "expected one bundle, got %d" (List.length l));
  for i = 1 to 40 do
    match Controller.create ctl (file i) ~mode:0o644 with
    | Error Errno.EIO -> ()
    | _ -> Alcotest.fail "a fail-stopped controller answers EIO"
  done;
  Alcotest.(check int) "no recovery after the fail-stop" 1
    (Controller.stats ctl).Controller.recoveries

(* A controller keeps the newest 256 recovery reports and bundle paths,
   newest last, so a daemon that recovers for days holds a bounded log;
   its counters count all of them.  300 back-to-back recoveries, each of
   an op on "/pwn", also show the hand-off's bound holding: the recovery
   of the op at the bound commits, so no window outgrows it by more
   than one op. *)
let test_logs_keep_newest () =
  let dir =
    let path = Filename.temp_file "rae-core-bundles" "" in
    Sys.remove path;
    path
  in
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:2048 () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:256 ()));
  let base = ok (Base.mount ~bugs:(arm [ "crafted-name-panic" ]) dev) in
  let ctl = Controller.make ~bundle_dir:dir ~device:dev base in
  let reg = Rae_obs.Metrics.create () in
  Controller.register_obs reg ctl;
  let bound = Controller.default_policy.Controller.ckpt_fold_interval in
  for i = 1 to 300 do
    let op = if i mod 2 = 1 then Op.Create (p "/pwn", 0o644) else Op.Unlink (p "/pwn") in
    ignore (Controller.exec ctl op);
    if (Controller.stats ctl).Controller.window > bound + 1 then
      Alcotest.failf "window %d after recovery %d" (Controller.stats ctl).Controller.window i
  done;
  let s = Controller.stats ctl in
  Alcotest.(check int) "every recovery counted" 300 s.Controller.recoveries;
  let reports = Controller.recoveries ctl in
  Alcotest.(check int) "newest 256 reports kept" 256 (List.length reports);
  (match (Controller.last_recovery ctl, List.rev reports) with
  | Some last, newest :: _ -> Alcotest.(check bool) "newest last" true (last == newest)
  | _ -> Alcotest.fail "no reports");
  Alcotest.(check int) "recent_recoveries" 3 (List.length (Controller.recent_recoveries ctl 3));
  let bundles = Controller.bundles ctl in
  Alcotest.(check int) "newest 256 bundles kept" 256 (List.length bundles);
  Alcotest.(check (list string)) "bundles 45 to 300, oldest first"
    (List.init 256 (fun i -> Rae_obs.Blackbox.bundle_name ~seq:(45 + i) ~kind:Rae_obs.Blackbox.kind_recovery))
    (List.map Filename.basename bundles);
  (match
     ( Rae_obs.Metrics.find reg "rae_blackbox_written_total",
       Rae_obs.Metrics.find reg "rae_blackbox_errors_total",
       Rae_obs.Metrics.find reg "rae_recoveries_total" )
   with
  | Some (Rae_obs.Metrics.Counter 300), Some (Rae_obs.Metrics.Counter 0), Some (Rae_obs.Metrics.Counter 300)
    ->
      ()
  | _ -> Alcotest.fail "expected 300 bundles written, 0 errors, 300 recoveries");
  Alcotest.(check (option Alcotest.string)) "not degraded" None (Controller.degraded ctl);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Without a checkpoint: fsck passes S0 (the first superblock read), then
   the cold shadow's own attach hits the fault.  That is a failed
   recovery, not an exception out of [Controller.exec]. *)
let test_device_error_in_cold_attach () =
  let ctl =
    mk_faulty ~bugs:(arm [ "crafted-name-panic" ]) ~policy:Controller.default_policy
      (superblock_read_error ~from_nth:2 ~count:max_int)
  in
  ignore (ok (Controller.create ctl (file 1) ~mode:0o644));
  (match Controller.create ctl (p "/pwn") ~mode:0o644 with
  | Error Errno.EIO -> ()
  | _ -> Alcotest.fail "expected EIO");
  Alcotest.(check bool) "health FAILSTOP" true (Controller.health ctl = Rae_obs.Events.Failstop);
  match Controller.last_recovery ctl with
  | Some { Report.r_outcome = Report.Recovery_failed msg; _ } ->
      Alcotest.(check bool) ("names the device error: " ^ msg) true (contains msg "device error")
  | _ -> Alcotest.fail "expected a failed-recovery report"

(* A bit flip in every inode of inode-table block [n], on that block's
   first read through the controller.  With [n = 0], the warm attach that
   reinstates S0's open descriptor decodes a bad checksum and raises
   [Shadow.Violation].  The flip is spent by the time the cold path's
   fsck reads the block, so the cold path recovers. *)
let inode_table_flip n g =
  let block = g.Layout.inode_table_start + n in
  List.init Layout.inodes_per_block (fun i ->
      Rae_block.Fault.Flip_on_read
        { block; byte = (i * Layout.inode_size) + 8; bit = 0; from_nth = 1; count = 1 })

let violation_at_s0 ~fold_interval ~creates =
  let ctl =
    mk_faulty ~bugs:(arm [ "crafted-name-panic" ]) ~policy:(fold_every fold_interval)
      (inode_table_flip 0)
  in
  let log = ok (Controller.openf ctl (p "/log") Types.flags_create) in
  ignore (ok (Controller.sync ctl));
  for i = 1 to creates do
    ignore (ok (Controller.create ctl (file i) ~mode:0o644))
  done;
  let poisons = (ckpt_stats ctl).Rae_core.Checkpoint.poisons in
  ignore (ok (Controller.create ctl (p "/pwn") ~mode:0o644));
  let after_panic = ckpt_stats ctl in
  (match Controller.last_recovery ctl with
  | Some { Report.r_outcome = Report.Recovered; r_seeded = false; r_replayed; _ } ->
      Alcotest.(check int) "cold replay of every create" creates r_replayed
  | _ -> Alcotest.fail "expected a cold, successful recovery");
  Alcotest.(check bool) "healthy" true (Controller.health ctl = Rae_obs.Events.Healthy);
  for i = 1 to creates do
    ignore (ok (Controller.lookup ctl (file i)))
  done;
  ignore (ok (Controller.lookup ctl (p "/pwn")));
  ignore (ok (Controller.pwrite ctl log ~off:0 "still open"));
  Alcotest.(check string) "S0 descriptor intact" "still open"
    (ok (Controller.pread ctl log ~off:0 ~len:64));
  (poisons, after_panic)

let test_violation_in_fold_attach () =
  let poisons_before_panic, s = violation_at_s0 ~fold_interval:8 ~creates:8 in
  Alcotest.(check int) "the fold poisoned" 1 poisons_before_panic;
  Alcotest.(check int) "nothing folded" 0 s.Rae_core.Checkpoint.folds

let test_violation_in_seed_attach () =
  let poisons_before_panic, s = violation_at_s0 ~fold_interval:1000 ~creates:5 in
  Alcotest.(check int) "no fold, no poison" 0 poisons_before_panic;
  Alcotest.(check int) "fell back" 1 s.Rae_core.Checkpoint.fallbacks;
  Alcotest.(check int) "not seeded" 0 s.Rae_core.Checkpoint.seeded

(* The seed hands the warm shadow over rather than copying it, so the
   checkpoint is spent until the next cut re-arms it. *)
let test_seed_spends_the_checkpoint () =
  let module Checkpoint = Rae_core.Checkpoint in
  let module Oplog = Rae_core.Oplog in
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:2048 () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:256 ()));
  let base =
    ok (Base.mount ~config:{ Base.default_config with Base.commit_interval = max_int } dev)
  in
  let log = Oplog.create () in
  let ckpt = Checkpoint.create ~events:(Rae_obs.Events.create ()) ~fold_interval:4 dev in
  ok (Checkpoint.cut ckpt ~window:0 ~fds:[] ~next_seq:0 ~commit_seq:0L);
  for i = 1 to 4 do
    let op = Op.Create (file i, 0o644) in
    Oplog.record log op (Base.exec base op)
  done;
  Checkpoint.fold ckpt log;
  Alcotest.(check int) "folded" 1 (Checkpoint.stats ckpt).Checkpoint.folds;
  (match Checkpoint.seed ckpt with
  | Ok (_, cursor) -> Alcotest.(check int) "cursor past the fold" 4 cursor
  | Error msg -> Alcotest.failf "seed failed: %s" msg);
  Alcotest.(check bool) "spent" false (Checkpoint.valid ckpt);
  (match Checkpoint.seed ckpt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a spent checkpoint must not seed again");
  ok (Checkpoint.cut ckpt ~window:0 ~fds:[] ~next_seq:4 ~commit_seq:1L);
  Alcotest.(check bool) "re-armed by the next cut" true (Checkpoint.valid ckpt)

(* A failure after the hand-over: the fold reads only inode-table block
   0, Δ replay is the first to read block 1, and its flipped inodes raise
   [Shadow.Violation] in the handed-over shadow.  Recovery falls back to
   the cold path, which replays the whole window; the seed already spent
   the checkpoint, so nothing is poisoned, and the commit that persists
   the cold path's hand-off re-arms it. *)
let test_fallback_after_a_hand_over () =
  let ctl =
    mk_faulty ~bugs:(arm [ "crafted-name-panic" ]) ~policy:(fold_every 8) (inode_table_flip 1)
  in
  for i = 1 to 20 do
    ignore (ok (Controller.create ctl (file i) ~mode:0o644));
    if i mod 5 = 0 then ignore (ok (Controller.sync ctl))
  done;
  for i = 1 to 8 do
    ignore (ok (Controller.chmod ctl (file i) ~mode:0o600))
  done;
  Alcotest.(check int) "one fold" 1 (ckpt_stats ctl).Rae_core.Checkpoint.folds;
  ignore (ok (Controller.stat ctl (file 20)));
  ignore (ok (Controller.create ctl (p "/pwn") ~mode:0o644));
  let s = ckpt_stats ctl in
  Alcotest.(check int) "handed over" 1 s.Rae_core.Checkpoint.seeded;
  Alcotest.(check int) "fell back" 1 s.Rae_core.Checkpoint.fallbacks;
  Alcotest.(check int) "nothing poisoned" 0 s.Rae_core.Checkpoint.poisons;
  (match Controller.last_recovery ctl with
  | Some { Report.r_outcome = Report.Recovered; r_seeded = false; r_replayed; _ } ->
      Alcotest.(check int) "cold replay of the whole window" 9 r_replayed
  | _ -> Alcotest.fail "expected a cold, successful recovery");
  for i = 1 to 20 do
    ignore (ok (Controller.lookup ctl (file i)))
  done;
  ignore (ok (Controller.lookup ctl (p "/pwn")));
  Alcotest.(check bool) "spent until the hand-off commits" false (Controller.checkpoint_valid ctl);
  ignore (ok (Controller.sync ctl));
  Alcotest.(check bool) "checkpoint re-armed" true (Controller.checkpoint_valid ctl)

(* The centerpiece property: replay-from-checkpoint is indistinguishable
   from replay-from-S0, for arbitrary traces — reads, opens, closes and
   failing ops included — and arbitrary fold cadences.  The warm arm runs
   the real [Checkpoint.cut]/[fold]/[seed], so it leaves out exactly what
   the fold leaves out, then replays Δ on the handed-over shadow; the
   reference arm is one shadow that replayed every entry from S0.
   Cadences run from many short folds to none at all, so Δ ranges from
   empty to the whole window, and a cadence past [count] seeds from a cut
   nothing has folded into.  Both arms must hand off the same block
   numbers: the handed-over shadow keeps its allocation rotor, so Δ
   places blocks where a replay from S0 would.  (Bytes may differ in the
   superblock's write-back generation, which batching changes.) *)
let prop_checkpoint_replay_equivalence =
  QCheck2.Test.make ~name:"replay-from-checkpoint = replay-from-S0" ~count:40
    QCheck2.Gen.(
      let* count = int_range 20 160 in
      let* fold_interval =
        oneof [ int_range 1 16; int_range 1 (count + 1); int_range (count + 1) 200 ]
      in
      map (fun seed -> (seed, count, fold_interval)) ui64)
    (fun (seed, count, fold_interval) ->
      let module Shadow = Rae_shadowfs.Shadow in
      let module Checkpoint = Rae_core.Checkpoint in
      let module Oplog = Rae_core.Oplog in
      let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:2048 () in
      let dev = Device.of_disk disk in
      ignore (ok (Base.mkfs dev ~ninodes:256 ()));
      let base =
        ok (Base.mount ~config:{ Base.default_config with Base.commit_interval = max_int } dev)
      in
      (* A sync-free trace against the base: the journal never commits, so
         the disk stays at S0 and every op lands in the window — exactly
         the state a recovery replays over. *)
      let log = Oplog.create () in
      let ckpt = Checkpoint.create ~events:(Rae_obs.Events.create ()) ~fold_interval dev in
      ok (Checkpoint.cut ckpt ~window:0 ~fds:[] ~next_seq:0 ~commit_seq:0L);
      List.iter
        (fun op ->
          Oplog.record log op (Base.exec base op);
          if Checkpoint.due ckpt ~next_seq:(Oplog.next_seq log) then Checkpoint.fold ckpt log)
        (Rae_workload.Workload.uniform_mutations (Rae_util.Rng.create seed) ~count);
      let replay sh = List.iter (fun r -> ignore (Shadow.exec_constrained_window sh [ r ])) in
      let full = ok (Shadow.attach dev) in
      replay full (Oplog.entries log);
      let seeded, cursor =
        match Checkpoint.seed ckpt with
        | Ok x -> x
        | Error msg -> QCheck2.Test.fail_reportf "seed failed: %s (seed %Ld)" msg seed
      in
      replay seeded (Oplog.entries_from log ~seq:cursor);
      let s = Checkpoint.stats ckpt in
      if s.Checkpoint.poisons > 0 || s.Checkpoint.fold_divergences > 0 then
        QCheck2.Test.fail_reportf "fold poisoned (%d divergences, seed %Ld)"
          s.Checkpoint.fold_divergences seed
      else if Shadow.time full <> Shadow.time seeded then
        QCheck2.Test.fail_reportf "clocks differ: %Ld vs %Ld (seed %Ld)" (Shadow.time full)
          (Shadow.time seeded) seed
      else if not (Rae_core.Differential.shadow_states_equal full seeded) then
        QCheck2.Test.fail_reportf "states diverge at cursor %d/%d (seed %Ld)" cursor
          (Oplog.length log) seed
      else
        let blocks sh = List.map fst (Shadow.dirty_blocks sh) in
        if blocks full = blocks seeded then true
        else
          QCheck2.Test.fail_reportf "hand-off blocks differ: %d vs %d (seed %Ld, interval %d)"
            (List.length (blocks full)) (List.length (blocks seeded)) seed fold_interval)

(* The controller-level statement: with checkpointing on, applications
   observe exactly the same outcomes and the same final tree as with it
   off — and both match the executable POSIX spec — even when panics are
   injected at arbitrary positions in random traces. *)
let prop_checkpoint_controller_equivalence =
  QCheck2.Test.make ~name:"ckpt-on = ckpt-off = spec under random panics" ~count:15
    QCheck2.Gen.(triple ui64 (int_range 60 200) (int_range 1 40))
    (fun (seed, count, nth) ->
      let bug () =
        Bug_registry.arm
          [
            {
              Bug_registry.id = "prop-ckpt-panic";
              determinism = Bug_registry.Deterministic;
              trigger = Bug_registry.Nth_op_of_kind (Op.K_create, nth);
              consequence = Bug_registry.Panic;
              modeled_after = "property-test injection";
            };
          ]
      in
      let mk_arm policy =
        let _disk, dev, ctl =
          mk ~policy
            ~config:{ Base.default_config with Base.commit_interval = 16 }
            ~bugs:(bug ()) ()
        in
        (dev, ctl)
      in
      let on_dev, on = mk_arm ckpt_policy and off_dev, off = mk_arm Controller.default_policy in
      let sp = Spec.make () in
      let ops = Rae_workload.Workload.uniform (Rae_util.Rng.create seed) ~count in
      List.iter
        (fun op ->
          let want = Spec.exec sp op in
          let got_on = Controller.exec on op and got_off = Controller.exec off op in
          if not (Op.outcome_equal want got_on) then
            QCheck2.Test.fail_reportf "ckpt-on diverges from spec on %s" (Op.to_string op);
          if not (Op.outcome_equal want got_off) then
            QCheck2.Test.fail_reportf "ckpt-off diverges from spec on %s" (Op.to_string op))
        ops;
      (if Controller.degraded on <> None then QCheck2.Test.fail_report "ckpt-on degraded");
      (* Checkpointing must only change recovery latency, never its path
         out: every recovery seeded, none fell back cold. *)
      (match Controller.checkpoint_stats on with
      | Some s when s.Rae_core.Checkpoint.fallbacks > 0 ->
          QCheck2.Test.fail_reportf "%d cold fallback(s)" s.Rae_core.Checkpoint.fallbacks
      | _ -> ());
      let snap_on = Rae_workload.Snapshot.capture ~exec:Controller.exec on in
      let snap_off = Rae_workload.Snapshot.capture ~exec:Controller.exec off in
      (match (snap_on, snap_off) with
      | Ok a, Ok b ->
          if not (Rae_workload.Snapshot.equal a b) then
            QCheck2.Test.fail_reportf "trees differ: %s"
              (String.concat "; " (Rae_workload.Snapshot.diff a b))
      | Error e, _ | _, Error e -> QCheck2.Test.fail_reportf "walk failed: %s" e);
      (* fsck is the one check here that does not come from the spec. *)
      List.for_all
        (fun (arm, dev, ctl) ->
          (match Controller.sync ctl with
          | Ok () -> ()
          | Error e -> QCheck2.Test.fail_reportf "%s: final sync: %s" arm (Errno.to_string e));
          let report = Rae_fsck.Fsck.check_device dev in
          Rae_fsck.Fsck.clean report
          || QCheck2.Test.fail_reportf "%s image unclean: %a" arm Rae_fsck.Fsck.pp_report report)
        [ ("ckpt-on", on_dev, on); ("ckpt-off", off_dev, off) ])

(* ---- a directory renamed into its own subtree through a symlink ---- *)

(* /d/b resolves to /a/b, inside the directory being moved, so the rename
   must fail with EINVAL, as on Linux.  A check on the path strings let it
   through everywhere: /a became its own child, cut off from the root, and
   fsck rejected the committed image (unreachable-inode). *)
let symlink_cycle_ops =
  [ Op.Symlink ("/a", p "/d"); Op.Mkdir (p "/a", 0o755); Op.Rename (p "/a", p "/d/b"); Op.Sync ]

let test_rename_into_own_subtree_via_symlink () =
  let run what exec =
    match List.rev (List.fold_left (fun acc op -> exec op :: acc) [] symlink_cycle_ops) with
    | [ Ok _; Ok _; Error Errno.EINVAL; Ok _ ] -> ()
    | outcomes ->
        Alcotest.failf "%s: %s" what
          (String.concat "; " (List.map (Format.asprintf "%a" Op.pp_outcome) outcomes))
  in
  let clean what dev =
    let report = Rae_fsck.Fsck.check_device dev in
    if not (Rae_fsck.Fsck.clean report) then
      Alcotest.failf "%s: %a" what Rae_fsck.Fsck.pp_report report
  in
  run "spec" (Spec.exec (Spec.make ()));
  let _disk, dev, ctl = mk () in
  run "base" (Base.exec (Controller.base ctl));
  clean "base" dev;
  List.iter
    (fun fast_paths ->
      let _disk, dev, _ctl = mk () in
      let config = { Rae_shadowfs.Shadow.default_config with Rae_shadowfs.Shadow.fast_paths } in
      run
        (Printf.sprintf "shadow (fast_paths=%b)" fast_paths)
        (Rae_shadowfs.Shadow.exec (ok (Rae_shadowfs.Shadow.attach ~config dev))))
    [ true; false ];
  (* Through the controller, with the base deciding the rename and with a
     panic on it, so that the shadow decides it (cold, or seeded from the
     warm checkpoint). *)
  let panic_on_rename () =
    Bug_registry.arm
      [
        {
          Bug_registry.id = "rename-panic";
          determinism = Bug_registry.Deterministic;
          trigger = Bug_registry.Nth_op_of_kind (Op.K_rename, 1);
          consequence = Bug_registry.Panic;
          modeled_after = "test injection";
        };
      ]
  in
  List.iter
    (fun (name, policy) ->
      List.iter
        (fun panic ->
          let what = Printf.sprintf "controller %s%s" name (if panic then " + panic" else "") in
          let bugs = if panic then Some (panic_on_rename ()) else None in
          let _disk, dev, ctl = mk ~policy ?bugs () in
          run what (Controller.exec ctl);
          Alcotest.(check int) (what ^ ": recoveries") (if panic then 1 else 0)
            (Controller.stats ctl).Controller.recoveries;
          (match Controller.last_recovery ctl with
          | Some r ->
              Alcotest.(check bool) (what ^ ": seeded") policy.Controller.ckpt_enabled
                r.Report.r_seeded
          | None -> ());
          Alcotest.(check (option Alcotest.string)) (what ^ ": not degraded") None
            (Controller.degraded ctl);
          clean what dev)
        [ false; true ])
    [ ("ckpt-off", Controller.default_policy); ("ckpt-on", ckpt_policy) ]

(* ---- cross-checking finds wrong-result bugs (E9) ---- *)

(* Twenty stats of one file, the 20th of which lies about its size, then
   a panic whose replay must expose the lie. *)
let wrong_result_scenario ?policy () =
  let _disk, _dev, ctl = mk ?policy ~bugs:(arm [ "stat-size-skew"; "crafted-name-panic" ]) () in
  let fd = ok (Controller.openf ctl (p "/f") Types.flags_create) in
  ignore (ok (Controller.pwrite ctl fd ~off:0 "12345"));
  ignore (ok (Controller.close ctl fd));
  (* The 20th stat returns a wrong size — undetectable in-line. *)
  for _ = 1 to 20 do
    ignore (Controller.stat ctl (p "/f"))
  done;
  Alcotest.(check int) "no recovery from a wrong result alone" 0
    (Controller.stats ctl).Controller.recoveries;
  (* A later panic forces replay; the cross-check exposes the lie. *)
  ignore (Controller.create ctl (p "/pwn") ~mode:0o644);
  let ds = Controller.discrepancies ctl in
  Alcotest.(check bool) "discrepancy reported" true (List.length ds >= 1);
  (match ds with
  | d :: _ -> (
      match (d.Report.d_base, d.Report.d_shadow) with
      | Ok (Op.St b), Ok (Op.St s) ->
          Alcotest.(check int) "base lied by one" (s.Types.st_size + 1) b.Types.st_size
      | _ -> Alcotest.fail "expected stat outcomes")
  | [] -> ());
  Alcotest.(check (option Alcotest.string)) "recovery still succeeded (policy: continue)" None
    (Controller.degraded ctl);
  ctl

let test_cross_check_finds_wrong_results () = ignore (wrong_result_scenario ())

(* The same lie with the checkpoint on: 23 recorded ops folded every 8,
   so the last fold stops at seq 16 and the lying stat (seq 22) is in Δ.
   A seeded recovery replays Δ in full, reads included, and reports it. *)
let test_cross_check_in_delta_with_checkpoint () =
  let ctl = wrong_result_scenario ~policy:ckpt_policy () in
  let s = Option.get (Controller.checkpoint_stats ctl) in
  Alcotest.(check int) "two folds" 2 s.Rae_core.Checkpoint.folds;
  Alcotest.(check int) "seeded" 1 s.Rae_core.Checkpoint.seeded;
  match Controller.last_recovery ctl with
  | Some r ->
      Alcotest.(check bool) "report marked seeded" true r.Report.r_seeded;
      Alcotest.(check (list int)) "the lying stat is listed" [ 22 ]
        (List.map (fun d -> d.Report.d_seq) r.Report.r_discrepancies)
  | None -> Alcotest.fail "no recovery report"

(* ---- the restart-only baseline loses what RAE preserves ---- *)

let test_restart_only_baseline_loses_state () =
  let mk_base_only () =
    let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:2048 () in
    let dev = Device.of_disk disk in
    ignore (ok (Base.mkfs dev ~ninodes:256 ()));
    (dev, ok (Base.mount ~bugs:(arm [ "crafted-name-panic" ]) dev))
  in
  let _dev, base = mk_base_only () in
  let ro = Rae_core.Restart_only.make base in
  let exec = Rae_core.Restart_only.exec ro in
  (* Build volatile state: a file with data and an open descriptor. *)
  (match exec (Op.Create (p "/acknowledged", 0o644)) with
  | Ok (Op.Ino _) -> ()
  | _ -> Alcotest.fail "create failed");
  let fd = match exec (Op.Open (p "/acknowledged", Types.flags_rw)) with
    | Ok (Op.Fd fd) -> fd
    | _ -> Alcotest.fail "open failed"
  in
  (* The panic: restart-only recovery gives EIO and rolls back to S0. *)
  (match exec (Op.Create (p "/pwn", 0o644)) with
  | Error Errno.EIO -> ()
  | other -> Alcotest.failf "expected EIO, got %a" Op.pp_outcome other);
  let s = Rae_core.Restart_only.stats ro in
  Alcotest.(check int) "one restart" 1 s.Rae_core.Restart_only.restarts;
  Alcotest.(check bool) "acknowledged work lost" true (s.Rae_core.Restart_only.lost_window_ops >= 1);
  (* The acknowledged file is GONE (it never committed)... *)
  (match exec (Op.Lookup (p "/acknowledged")) with
  | Error Errno.ENOENT -> ()
  | other -> Alcotest.failf "expected rollback, got %a" Op.pp_outcome other);
  (* ...and the descriptor is dead. *)
  (match exec (Op.Pread (fd, 0, 1)) with
  | Error Errno.EBADF -> ()
  | other -> Alcotest.failf "expected EBADF, got %a" Op.pp_outcome other);
  (* Contrast: the same scenario under RAE preserves both (see
     test_fd_survives_recovery); here we just confirm the baseline's loss
     is real, which is exactly the paper's motivation. *)
  ()

(* ---- graceful degradation ---- *)

let test_degrades_on_unrecoverable_image () =
  (* Corrupt the on-disk root directory: the base panics, and the shadow's
     fsck refuses S0.  RAE must degrade to EIO — the process survives. *)
  let disk, _dev, ctl = mk () in
  ignore (ok (Controller.create ctl (p "/x") ~mode:0o644));
  ignore (ok (Controller.sync ctl));
  let g =
    (ok (Rae_format.Reader.attach (fun blk -> Disk.read disk blk))).Rae_format.Reader.sb
      .Rae_format.Superblock.geometry
  in
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:4 (fun _ -> '\000');
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:5 (fun _ -> '\000');
  (* Drop caches so the corruption is read back. *)
  ignore (ok (Base.contained_reboot (Controller.base ctl)));
  (match Controller.lookup ctl (p "/x") with
  | Error Errno.EIO -> ()
  | other ->
      Alcotest.failf "expected EIO, got %s"
        (match other with Ok i -> string_of_int i | Error e -> Errno.to_string e));
  Alcotest.(check bool) "degraded with a reason" true (Controller.degraded ctl <> None);
  (* The cold path's fsck precondition is what refused S0. *)
  (match Controller.last_recovery ctl with
  | Some { Report.r_outcome = Report.Recovery_failed msg; _ } ->
      if not (contains msg "fsck rejected the image") then
        Alcotest.failf "failed report does not name fsck: %s" msg
  | _ -> Alcotest.fail "expected a failed-recovery report");
  (* Subsequent calls fail fast, no exception escapes. *)
  (match Controller.stat ctl (p "/x") with
  | Error Errno.EIO -> ()
  | _ -> Alcotest.fail "degraded controller must return EIO")

let test_recovery_counts_in_stats () =
  let _disk, _dev, ctl = mk ~bugs:(arm [ "crafted-name-panic" ]) () in
  ignore (Controller.create ctl (p "/pwn") ~mode:0o644);
  ignore (Controller.create ctl (p "/pwn2") ~mode:0o644);
  let s = Controller.stats ctl in
  Alcotest.(check int) "ops counted" 2 s.Controller.ops;
  Alcotest.(check int) "one recovery (second name has no 'pwn' component...)" 1 s.Controller.recoveries

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_core"
    [
      ( "common-path",
        [
          Alcotest.test_case "passthrough" `Quick test_passthrough_no_bugs;
          Alcotest.test_case "oplog prunes at commit" `Quick test_oplog_prunes_at_commit;
        ] );
      ( "masking",
        [
          Alcotest.test_case "panic" `Quick test_mask_panic_bug;
          Alcotest.test_case "nth-lookup panic" `Quick test_mask_deterministic_nth_panic;
          Alcotest.test_case "warn" `Quick test_mask_warn_bug;
          Alcotest.test_case "warn coinciding with commit" `Quick test_warn_coinciding_with_commit;
          Alcotest.test_case "silent corruption" `Quick test_mask_silent_corruption;
          Alcotest.test_case "hang + delegated fsync" `Quick test_mask_hang;
          Alcotest.test_case "fault in delegated fsync" `Quick test_fault_in_delegated_sync;
          Alcotest.test_case "non-deterministic race" `Quick test_mask_nondeterministic_bug;
        ] );
      ( "reconstruction",
        [
          Alcotest.test_case "fd survives" `Quick test_fd_survives_recovery;
          Alcotest.test_case "orphan survives" `Quick test_orphan_survives_recovery;
          Alcotest.test_case "ino/fd numbers stable" `Quick test_inode_and_fd_numbers_stable;
          Alcotest.test_case "report contents" `Quick test_recovery_report_contents;
          Alcotest.test_case "a power cut before the deferred commit recovers S0" `Quick
            test_power_cut_before_deferred_commit;
          Alcotest.test_case "the deferred commit makes the window durable" `Quick
            test_deferred_commit_makes_window_durable;
          Alcotest.test_case "two recoveries before the deferred commit" `Quick
            test_two_recoveries_before_deferred_commit;
          Alcotest.test_case "a block freed in the window is reused before the commit" `Quick
            test_block_freed_in_window_reused;
        ] );
      ( "availability",
        [
          Alcotest.test_case "all profiles, all bugs" `Slow test_availability_under_all_bugs;
          Alcotest.test_case "isize corruption caught" `Quick test_isize_corruption_caught_and_recovered;
          q prop_availability_random_traces;
          q prop_recovery_preserves_whole_tree;
          Alcotest.test_case "rename into own subtree via symlink" `Quick
            test_rename_into_own_subtree_via_symlink;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "cut refuses uncommitted window" `Quick
            test_checkpoint_refuses_uncommitted_window;
          Alcotest.test_case "seeded recovery replays only the delta" `Quick
            test_seeded_recovery_replays_only_delta;
          Alcotest.test_case "cuts defer the attach" `Quick test_cuts_defer_the_attach;
          Alcotest.test_case "invalidation adversary" `Quick test_invalidation_adversary;
          Alcotest.test_case "fold skips pure reads" `Quick test_fold_skips_pure_reads;
          Alcotest.test_case "device error in the fold's attach" `Quick
            test_device_error_in_fold_attach;
          Alcotest.test_case "device error in the seed's attach" `Quick
            test_device_error_in_seed_attach;
          Alcotest.test_case "device error in a folded op" `Quick test_device_error_in_fold_read;
          Alcotest.test_case "persistent device error fails stop" `Quick
            test_persistent_device_error_fails_stop;
          Alcotest.test_case "device error in the cold attach fails stop" `Quick
            test_device_error_in_cold_attach;
          Alcotest.test_case "a hand-off the barrier rejects fails stop" `Quick
            test_rejected_handoff_fails_stop;
          Alcotest.test_case "corrupt S0 inode in the fold's attach" `Quick
            test_violation_in_fold_attach;
          Alcotest.test_case "corrupt S0 inode in the seed's attach" `Quick
            test_violation_in_seed_attach;
          Alcotest.test_case "seed spends the checkpoint" `Quick test_seed_spends_the_checkpoint;
          Alcotest.test_case "fallback after a hand-over" `Quick test_fallback_after_a_hand_over;
          q prop_checkpoint_replay_equivalence;
          q prop_checkpoint_controller_equivalence;
        ] );
      ( "cross-check",
        [
          Alcotest.test_case "wrong results exposed" `Quick test_cross_check_finds_wrong_results;
          Alcotest.test_case "wrong result in Δ reported with the checkpoint on" `Quick
            test_cross_check_in_delta_with_checkpoint;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "restart-only loses state" `Quick
            test_restart_only_baseline_loses_state;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "unrecoverable image" `Quick test_degrades_on_unrecoverable_image;
          Alcotest.test_case "stats" `Quick test_recovery_counts_in_stats;
          Alcotest.test_case "the logs keep the newest 256" `Quick test_logs_keep_newest;
        ] );
    ]
