(* The crash-consistency scenario engine (lib/crash).

   Deterministic end-to-end coverage: the subset-key codec, bounded
   workload generation/dedup, sweeps over bounded and targeted workloads
   (0 diverging), crash-during-recovery and crash-during-checkpoint-fold
   sweeps, the seeded-divergence fixture (a device that ignores flush
   barriers MUST be caught), greedy minimization, key replay, and the
   postmortem bundles written for diverging images. *)

module Crashsim = Rae_block.Crashsim
module Recording = Rae_crash.Recording
module Enumerate = Rae_crash.Enumerate
module Oracle = Rae_crash.Oracle
module Engine = Rae_crash.Engine
module Bounded = Rae_crash.Bounded
module Blackbox = Rae_obs.Blackbox
module Op = Rae_vfs.Op
module Path = Rae_vfs.Path

let p = Path.parse_exn

let fixture_ops = [ Op.Create (p "/a", 0o644); Op.Sync ]

(* ---- subset-key codec ---- *)

let test_mask_roundtrip () =
  List.iter
    (fun n ->
      let mask = Array.init n (fun i -> i mod 3 = 0) in
      let hex = Crashsim.mask_to_hex mask in
      match Crashsim.mask_of_hex ~n hex with
      | Some back -> Alcotest.(check (array bool)) "roundtrip" mask back
      | None -> Alcotest.failf "mask_of_hex rejected its own encoding (n=%d %s)" n hex)
    [ 0; 1; 3; 4; 7; 16; 33 ]

let test_partial_key_roundtrip () =
  let mask = [| true; false; false; true; true |] in
  let key = Crashsim.partial_key mask in
  (match Crashsim.parse_partial_key key with
  | Some back -> Alcotest.(check (array bool)) "roundtrip" mask back
  | None -> Alcotest.fail "parse_partial_key rejected partial_key output");
  Alcotest.(check bool) "garbage rejected" true (Crashsim.parse_partial_key "5:zz" = None);
  Alcotest.(check bool) "length mismatch rejected" true
    (Crashsim.parse_partial_key "9:01" = None)

let test_crash_partial_key_replay () =
  (* Same workload, same key => byte-identical crash image. *)
  let run () = Recording.record ~commit_interval:4 fixture_ops in
  let t1 = run () and t2 = run () in
  Alcotest.(check int) "same stream length" (Array.length t1.Recording.events)
    (Array.length t2.Recording.events);
  let point = Printf.sprintf "p:%d" (Array.length t1.Recording.events) in
  let img t =
    match Enumerate.apply t point with
    | Ok disk -> Rae_block.Disk.snapshot disk
    | Error msg -> Alcotest.failf "apply: %s" msg
  in
  Alcotest.(check bool) "identical final images" true (img t1 = img t2)

(* ---- bounded generation ---- *)

let test_bounded_dedup () =
  let all = Bounded.all () in
  let n = List.length all in
  Alcotest.(check bool) "space is non-trivial" true (n > 200);
  let keys = List.map Bounded.canonical_key all in
  Alcotest.(check int) "canonical keys are unique" n
    (List.length (List.sort_uniq compare keys));
  (* Footprint-equivalent sequences collapse: create /a ~ create /b. *)
  Alcotest.(check string) "renaming collapses"
    (Bounded.canonical_key [ Op.Create (p "/a", 0o644) ])
    (Bounded.canonical_key [ Op.Create (p "/b", 0o644) ]);
  let sample = Bounded.sample ~max:24 in
  Alcotest.(check int) "sample respects the budget" 24 (List.length sample)

(* ---- recording ---- *)

let test_recording_boundaries () =
  let t = Recording.record ~commit_interval:2 fixture_ops in
  Alcotest.(check bool) "stream captured" true (Recording.write_count t > 0);
  Alcotest.(check bool) "at least fresh + final boundary" true
    (Array.length t.Recording.boundaries >= 2);
  let last = t.Recording.boundaries.(Array.length t.Recording.boundaries - 1) in
  Alcotest.(check int) "final boundary covers all ops" (Array.length t.Recording.ops)
    last.Recording.b_op;
  (* Boundary events are monotonic. *)
  Array.iteri
    (fun i b ->
      if i > 0 then
        Alcotest.(check bool) "monotonic" true
          (b.Recording.b_event >= t.Recording.boundaries.(i - 1).Recording.b_event))
    t.Recording.boundaries

(* ---- sweeps ---- *)

let check_no_divergence name stats =
  Alcotest.(check int)
    (name ^ ": no diverging points")
    0
    (List.length stats.Engine.s_diverging);
  Alcotest.(check bool) (name ^ ": swept something") true (stats.Engine.s_points > 0)

let test_sweep_bounded () =
  check_no_divergence "bounded" (Engine.sweep_bounded ~max_workloads:12 ())

let test_sweep_targeted () =
  check_no_divergence "targeted"
    (Engine.sweep_targeted ~count:24 ~seeds:[ 3L ] ~profiles:[ Rae_workload.Workload.Varmail ] ())

let test_sweep_recovery_cold () =
  let stats = Engine.sweep_recovery ~count:16 ~ckpt:false () in
  check_no_divergence "recovery-cold" stats

let test_sweep_recovery_ckpt () =
  (* sweep_recovery itself asserts the run seeded from the checkpoint. *)
  let stats = Engine.sweep_recovery ~count:16 ~ckpt:true () in
  check_no_divergence "recovery-ckpt" stats

let test_sweep_recovery_chunked () =
  (* sweep_recovery itself asserts the hand-off chunked. *)
  let stats = Engine.sweep_recovery ~count:16 ~journal_len:16 ~ckpt:false () in
  check_no_divergence "recovery-chunked" stats

(* ---- the seeded divergence ---- *)

let test_fixture_detected () =
  let stats = Engine.sweep_ops ~barriers:false ~label:"fixture" fixture_ops in
  Alcotest.(check bool) "barrier-ignoring device caught" true
    (stats.Engine.s_diverging <> [])

let test_fixture_minimized () =
  match Engine.minimize ~barriers:false fixture_ops with
  | None -> Alcotest.fail "fixture did not diverge"
  | Some ops ->
      Alcotest.(check bool) "reproducer within 3 ops" true (List.length ops <= 3);
      Alcotest.(check bool) "reproducer still diverges" true
        (Engine.first_divergence ~barriers:false ops <> None)

let test_fixture_repro_by_key () =
  match Engine.first_divergence ~barriers:false fixture_ops with
  | None -> Alcotest.fail "fixture did not diverge"
  | Some d -> (
      match Engine.repro ~barriers:false ~key:d.Engine.d_key fixture_ops with
      | Error msg -> Alcotest.failf "repro: %s" msg
      | Ok o ->
          Alcotest.(check bool) "same key, same verdict" true (Oracle.is_diverging o);
          (* And with barriers honoured the very same key must be judged
             against the *barriered* plan — parse or reject cleanly, never
             crash. *)
          (match Engine.repro ~barriers:true ~key:d.Engine.d_key fixture_ops with
          | Ok _ | Error _ -> ()))

let test_oracle_verdict_on_clean_point () =
  let t = Recording.record fixture_ops in
  let final = Printf.sprintf "p:%d" (Array.length t.Recording.events) in
  match Engine.repro ~key:final fixture_ops with
  | Error msg -> Alcotest.failf "repro: %s" msg
  | Ok o -> (
      match o.Oracle.o_verdict with
      | Oracle.Consistent -> ()
      | v -> Alcotest.failf "final image should be consistent, got %s" (Oracle.verdict_to_string v))

(* ---- postmortem bundles ---- *)

let test_divergence_bundles () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "rae_crash_bundles" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  let cfg = { Engine.default_config with Engine.bundle_dir = Some dir } in
  let stats = Engine.sweep_ops ~cfg ~barriers:false ~label:"fixture" fixture_ops in
  let n_div = List.length stats.Engine.s_diverging in
  Alcotest.(check bool) "fixture diverged" true (n_div > 0);
  let bundles = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check int) "one bundle per divergence" n_div (List.length bundles);
  List.iter
    (fun f ->
      match Blackbox.check_file (Filename.concat dir f) with
      | Ok summary ->
          Alcotest.(check string) "crash kind" "crash" summary.Blackbox.s_kind
      | Error errs -> Alcotest.failf "%s: %s" f (String.concat "; " errs))
    bundles

let () =
  Alcotest.run "rae_crash"
    [
      ( "codec",
        [
          Alcotest.test_case "mask roundtrip" `Quick test_mask_roundtrip;
          Alcotest.test_case "partial key roundtrip" `Quick test_partial_key_roundtrip;
          Alcotest.test_case "key replay determinism" `Quick test_crash_partial_key_replay;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "canonical dedup" `Quick test_bounded_dedup;
          Alcotest.test_case "recording boundaries" `Quick test_recording_boundaries;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "bounded sweep" `Slow test_sweep_bounded;
          Alcotest.test_case "targeted sweep" `Slow test_sweep_targeted;
          Alcotest.test_case "crash mid-recovery" `Slow test_sweep_recovery_cold;
          Alcotest.test_case "crash mid-ckpt-fold" `Slow test_sweep_recovery_ckpt;
          Alcotest.test_case "crash mid-recovery, chunked hand-off" `Slow
            test_sweep_recovery_chunked;
        ] );
      ( "fixture",
        [
          Alcotest.test_case "divergence detected" `Quick test_fixture_detected;
          Alcotest.test_case "minimized to <= 3 ops" `Slow test_fixture_minimized;
          Alcotest.test_case "repro by key" `Quick test_fixture_repro_by_key;
          Alcotest.test_case "clean point is consistent" `Quick test_oracle_verdict_on_clean_point;
          Alcotest.test_case "postmortem bundles" `Quick test_divergence_bundles;
        ] );
    ]
