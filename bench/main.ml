(* The benchmark harness: regenerates every table and figure of the paper
   (Table 1, Figure 1) and measures every quantitative design claim
   (experiments E3-E10 of DESIGN.md / EXPERIMENTS.md).

   Absolute numbers depend on the host; the *shapes* — who wins, by what
   factor, where the crossovers sit — are the reproduction targets. *)

open Rae_vfs
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Shadow = Rae_shadowfs.Shadow
module Controller = Rae_core.Controller
module Report = Rae_core.Report
module Spec = Rae_specfs.Spec
module Disk = Rae_block.Disk
module Device = Rae_block.Device
module Layout = Rae_format.Layout
module W = Rae_workload.Workload

let p = Path.parse_exn
let ok = Result.get_ok
let bs = Layout.block_size

let section title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

(* --quick: smoke-test scaling so the whole harness runs in seconds (the
   bench-smoke alias); shapes survive, absolute numbers are noise. *)
let quick = ref false
let sc n = if !quick then max 1 (n / 8) else n
let reps r = if !quick then 1 else r

(* Machine-readable results (--json <path>).  Each printed measurement that
   matters is also recorded as (section, sample, unit, value); the writer
   groups samples by section in first-appearance order. *)
let json_samples : (string * string * string * float) list ref = ref []
let json_note ~sec ~name ~unit v = json_samples := (sec, name, unit, v) :: !json_samples

(* One metrics-registry snapshot (Rae_obs.Metrics.json), captured by
   E-obs/b from a post-recovery controller, embedded next to the
   provenance block so a BENCH_*.json can be read cold. *)
let json_metrics : Rae_obs.Jsonx.t option ref = ref None

(* BENCH_*.json files outlive the tree they were captured from, so embed
   enough provenance to read them cold: the git rev, a monotonic run id,
   and the configuration the numbers depend on — the knobs, and which
   CRC32C kernel the host ran. *)
let json_config () =
  let module J = Rae_obs.Jsonx in
  let c = Base.default_config and pol = Controller.default_policy in
  J.Obj
    [
      ("cache_policy", J.Str (match c.Base.cache_policy with `Lru -> "lru" | `Two_q -> "2q"));
      ("bcache_capacity", J.Int c.Base.bcache_capacity);
      ("icache_capacity", J.Int c.Base.icache_capacity);
      ("dcache_capacity", J.Int c.Base.dcache_capacity);
      ("commit_interval", J.Int c.Base.commit_interval);
      ("ckpt_fold_interval", J.Int pol.Controller.ckpt_fold_interval);
      ("crc32c", J.Str Rae_util.Checksum.kernel);
    ]

let write_json path =
  let module J = Rae_obs.Jsonx in
  let samples = List.rev !json_samples in
  let sections =
    List.fold_left
      (fun acc (sec, _, _, _) -> if List.mem sec acc then acc else acc @ [ sec ])
      [] samples
  in
  let section sec =
    J.Obj
      [
        ("name", J.Str sec);
        ( "samples",
          J.List
            (List.filter_map
               (fun (s, name, unit, v) ->
                 if s = sec then
                   Some (J.Obj [ ("name", J.Str name); ("unit", J.Str unit); ("value", J.Float v) ])
                 else None)
               samples) );
      ]
  in
  let json =
    J.Obj
      [
        ("bench", J.Str "rae-shadowfs");
        ("quick", J.Bool !quick);
        ("rev", J.Str (Rae_obs.Blackbox.git_rev ()));
        (* Monotonic across runs on one host: wall-clock nanoseconds. *)
        ("run_id", J.Int (int_of_float (Unix.gettimeofday () *. 1e9)));
        ("config", json_config ());
        ("metrics", Option.value ~default:(J.Obj []) !json_metrics);
        ("sections", J.List (List.map section sections));
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nWrote %d samples in %d sections to %s\n" (List.length samples)
    (List.length sections) path

(* Every duration in the harness is read from the system's one clock,
   [Rae_obs.Clock] (CLOCK_MONOTONIC), in seconds. *)
let now_s () = Int64.to_float (Rae_obs.Clock.now_ns ()) /. 1e9

(* Median-of-reps wall timing.  One warmup run plus a compaction isolate
   each measurement from garbage left behind by earlier bench sections. *)
let time_runs ~reps f =
  ignore (f ());
  Gc.compact ();
  let samples =
    List.init reps (fun _ ->
        Gc.major ();
        let t0 = now_s () in
        f ();
        now_s () -. t0)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (reps / 2)

(* Median-of-reps timing for competing arms whose results will be
   compared against each other.  Measuring each arm's reps back to back
   lets slow allocator/collector drift land entirely in the A-vs-B
   margin, so the reps are interleaved round-robin across the arms —
   drift then shifts all arms together and cancels in the paired
   comparison.  Returns the per-arm medians. *)
let time_interleaved ~reps fs =
  Array.iter (fun f -> f ()) fs;
  Gc.compact ();
  let samples = Array.map (fun _ -> ref []) fs in
  for _ = 1 to reps do
    Array.iteri
      (fun i f ->
        Gc.major ();
        let t0 = now_s () in
        f ();
        samples.(i) := (now_s () -. t0) :: !(samples.(i)))
      fs
  done;
  Array.map
    (fun s ->
      let sorted = List.sort compare !s in
      List.nth sorted (List.length sorted / 2))
    samples

(* Like [time_runs], but the measured function reports the simulated
   device time its run accrued.  Returns the median (combined, device)
   pair: combined = wall + device time, the elapsed time of a synchronous
   single-threaded execution; device = the virtual-clock share alone, so
   --json can report simulated time separately from wall time. *)
let time_runs_with_device ~reps f =
  ignore (f ());
  Gc.compact ();
  let samples =
    List.init reps (fun _ ->
        Gc.major ();
        let t0 = now_s () in
        let device_ns = f () in
        let device = Int64.to_float device_ns /. 1e9 in
        (now_s () -. t0 +. device, device))
  in
  let sorted = List.sort compare samples in
  List.nth sorted (reps / 2)

let mk_disk ?(nblocks = 8192) () =
  Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks ()

let fresh_base ?config ?bugs ?(nblocks = 8192) () =
  let disk = mk_disk ~nblocks () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:1024 ()));
  (disk, dev, ok (Base.mount ?config ?bugs dev))

let fresh_shadow ?(checks = true) ?(fast_paths = true) ?(nblocks = 8192) () =
  let disk = mk_disk ~nblocks () in
  let dev = Device.of_disk disk in
  ignore (ok (Rae_format.Mkfs.format dev ~ninodes:1024 ()));
  let config = { Shadow.default_config with Shadow.checks; fast_paths } in
  (disk, ok (Shadow.attach ~config dev))

let run_ops exec fs ops = List.iter (fun op -> ignore (exec fs op)) ops

(* ---------------------------------------------------------------- *)
(* E1: Table 1                                                       *)
(* ---------------------------------------------------------------- *)

let e1_table1 () =
  section "E1 | Table 1: study of filesystem bugs (Linux ext4), 256 bugs since 2013";
  let corpus = Rae_bugstudy.Corpus.records () in
  let table = Rae_bugstudy.Study.table1 corpus in
  Format.printf "%a@." Rae_bugstudy.Study.pp_table1 table;
  Printf.printf
    "\nHeadline claims: %d/%d deterministic; %d/%d deterministic bugs cause\n\
     crashes or warnings that are detected as runtime errors.\n"
    (Rae_bugstudy.Study.cell_total table.Rae_bugstudy.Study.deterministic)
    (Rae_bugstudy.Study.grand_total table)
    (Rae_bugstudy.Study.detectable_deterministic table)
    (Rae_bugstudy.Study.cell_total table.Rae_bugstudy.Study.deterministic)

(* ---------------------------------------------------------------- *)
(* E2: Figure 1                                                      *)
(* ---------------------------------------------------------------- *)

let e2_fig1 () =
  section "E2 | Figure 1: number of deterministic bugs by year";
  let corpus = Rae_bugstudy.Corpus.records () in
  Format.printf "%a@." Rae_bugstudy.Study.pp_fig1 (Rae_bugstudy.Study.fig1 corpus)

(* ---------------------------------------------------------------- *)
(* E3: common-case performance, base vs shadow-style execution       *)
(* ---------------------------------------------------------------- *)

let e3_base_vs_shadow () =
  subsection
    "E3b | sustained workloads (simulated elapsed = wall + device time, 10us rd / 20us wr)";
  Printf.printf
    "Caveat: the shadow never writes to the device and its overlay acts as an\n\
     unbounded in-memory cache with no durability, which flatters it on\n\
     write/fsync-heavy profiles; the micro table above is the per-op claim.\n";
  Printf.printf "%-12s %14s %14s %10s\n" "workload" "base (op/s)" "shadow (op/s)" "base adv.";
  let profiles = [ W.Varmail; W.Fileserver; W.Webserver; W.Metadata ] in
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 42L) ~count:(sc 2000) in
      let n = float_of_int (List.length ops) in
      let base_t, base_sim =
        time_runs_with_device ~reps:(reps 2) (fun () ->
            let disk = Disk.create ~block_size:bs ~nblocks:8192 () in
            let dev = Device.of_disk disk in
            ignore (ok (Base.mkfs dev ~ninodes:1024 ()));
            let b = ok (Base.mount dev) in
            run_ops Base.exec b ops;
            Rae_util.Vclock.now (Disk.clock disk))
      in
      let shadow_t, shadow_sim =
        time_runs_with_device ~reps:(reps 2) (fun () ->
            let disk = Disk.create ~block_size:bs ~nblocks:8192 () in
            let dev = Device.of_disk disk in
            ignore (ok (Rae_format.Mkfs.format dev ~ninodes:1024 ()));
            let s = ok (Shadow.attach dev) in
            run_ops Shadow.exec s ops;
            Rae_util.Vclock.now (Disk.clock disk))
      in
      json_note ~sec:"E3" ~name:(W.profile_name profile ^ "/base") ~unit:"ops_per_s" (n /. base_t);
      json_note ~sec:"E3" ~name:(W.profile_name profile ^ "/shadow") ~unit:"ops_per_s"
        (n /. shadow_t);
      json_note ~sec:"E3" ~name:(W.profile_name profile ^ "/base-sim") ~unit:"s" base_sim;
      json_note ~sec:"E3" ~name:(W.profile_name profile ^ "/shadow-sim") ~unit:"s" shadow_sim;
      Printf.printf "%-12s %14.0f %14.0f %9.1fx\n" (W.profile_name profile) (n /. base_t)
        (n /. shadow_t) (shadow_t /. base_t))
    profiles;
  Printf.printf
    "\nExpected shape: since the PR 6 fast paths, the default shadow serves\n\
     cached lookups at or below the base's cost, and it issues no writes at\n\
     all (it is not a durable filesystem), so raw op/s comparisons flatter\n\
     it on write/fsync-heavy profiles.  The paper's base-vs-shadow asymmetry\n\
     — the shadow as the simple, slow, checks-everything implementation —\n\
     is preserved against the naive shadow; E-shadow-a carries that\n\
     comparison (naive micro-ops are tens to hundreds of us).\n"

(* The idempotent micro-operations, on the harness's one clock: each rep
   runs an operation [iters] times, the reps of the eight operations are
   interleaved, and the median rep gives ns/op. *)
let e3_micro () =
  section "E3 | Figure 2 (design): common-case performance, base vs shadow execution";
  subsection "E3a | micro-operations, warm caches (median of interleaved reps, ns/op)";
  let _, _, base = fresh_base () in
  let _, shadow = fresh_shadow () in
  let setup exec fs =
    ignore (exec fs (Op.Mkdir (p "/a", 0o755)));
    ignore (exec fs (Op.Mkdir (p "/a/b", 0o755)));
    ignore (exec fs (Op.Create (p "/a/b/leaf", 0o644)));
    ignore (exec fs (Op.Open (p "/a/b/leaf", Types.flags_rw)));
    ignore (exec fs (Op.Pwrite (0, 0, String.make 8192 'x')));
    ignore (exec fs Op.Sync)
  in
  setup Base.exec base;
  setup Shadow.exec shadow;
  let iters = sc 20_000 in
  let op name f =
    (name, fun () -> for _ = 1 to iters do ignore (Sys.opaque_identity (f ())) done)
  in
  let ops =
    [|
      op "base/lookup" (fun () -> Base.lookup base (p "/a/b/leaf"));
      op "base/pread-4k" (fun () -> Base.pread base 0 ~off:0 ~len:4096);
      op "base/readdir" (fun () -> Base.readdir base (p "/a/b"));
      op "base/stat" (fun () -> Base.stat base (p "/a/b/leaf"));
      op "shadow/lookup" (fun () -> Shadow.lookup shadow (p "/a/b/leaf"));
      op "shadow/pread-4k" (fun () -> Shadow.pread shadow 0 ~off:0 ~len:4096);
      op "shadow/readdir" (fun () -> Shadow.readdir shadow (p "/a/b"));
      op "shadow/stat" (fun () -> Shadow.stat shadow (p "/a/b/leaf"));
    |]
  in
  let medians = time_interleaved ~reps:(reps 7) (Array.map snd ops) in
  Array.iteri
    (fun i (name, _) ->
      let ns = medians.(i) /. float_of_int iters *. 1e9 in
      json_note ~sec:"E3" ~name ~unit:"ns_per_op" ns;
      Printf.printf "%-24s %12.0f ns/op\n" name ns)
    ops

(* ---------------------------------------------------------------- *)
(* E4: operation-recording overhead                                  *)
(* ---------------------------------------------------------------- *)

let e4_record_overhead () =
  section "E4 | RAE common-path overhead: operation recording on vs off";
  Printf.printf "%-12s %14s %14s %10s\n" "workload" "raw base" "base+RAE" "overhead";
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 7L) ~count:(sc 2000) in
      let n = float_of_int (List.length ops) in
      let raw_t =
        time_runs ~reps:(reps 3) (fun () ->
            let _, _, b = fresh_base () in
            run_ops Base.exec b ops)
      in
      let rae_t =
        time_runs ~reps:(reps 3) (fun () ->
            let _, dev, b = fresh_base () in
            let ctl = Controller.make ~device:dev b in
            run_ops Controller.exec ctl ops)
      in
      json_note ~sec:"E4" ~name:(W.profile_name profile ^ "/raw") ~unit:"ops_per_s" (n /. raw_t);
      json_note ~sec:"E4" ~name:(W.profile_name profile ^ "/rae") ~unit:"ops_per_s" (n /. rae_t);
      Printf.printf "%-12s %12.0f/s %12.0f/s %9.1f%%\n" (W.profile_name profile) (n /. raw_t)
        (n /. rae_t)
        ((rae_t -. raw_t) /. raw_t *. 100.))
    [ W.Varmail; W.Fileserver; W.Metadata ];
  Printf.printf
    "\nExpected shape: recording is an in-memory append; overhead within a few\n\
     percent (measurement noise dominates at these run lengths).\n"

(* ---------------------------------------------------------------- *)
(* E5: recovery latency vs recorded-window length                    *)
(* ---------------------------------------------------------------- *)

(* One recovery measurement: run [window] commit-free metadata ops under a
   controller with [policy], trip a deterministic panic, and report the
   recovery along with simulated device time and device reads.  Shared by
   E5 (latency-vs-window, both arms) and E-ckpt (the speedup floor). *)
let recovery_run ~policy window =
  let bugs =
    Bug_registry.arm
      [
        {
          Bug_registry.id = "bench-panic";
          determinism = Bug_registry.Deterministic;
          trigger = Bug_registry.Path_component "trigger";
          consequence = Bug_registry.Panic;
          modeled_after = "bench";
        };
      ]
  in
  (* Simulated device latency on, so recovery has a virtual-clock cost
     (journal replay + shadow reads) alongside the wall cost. *)
  let disk = Disk.create ~latency:Disk.default_latency ~block_size:bs ~nblocks:8192 () in
  let dev, counts = Device.counting (Device.of_disk disk) in
  ignore (ok (Base.mkfs dev ~ninodes:1024 ~journal_len:1024 ()));
  let b =
    ok (Base.mount ~config:{ Base.default_config with Base.commit_interval = max_int } ~bugs dev)
  in
  let ctl = Controller.make ~policy ~device:dev b in
  let ops = W.ops W.Metadata (Rae_util.Rng.create 3L) ~count:window in
  let ops = List.filter (fun op -> not (Op.is_sync op)) ops in
  run_ops Controller.exec ctl ops;
  (* The recovery wall time below must not absorb a major collection of
     garbage left by the setup ops or by earlier bench sections. *)
  Gc.full_major ();
  let reads_before, _ = counts () in
  let sim_before = Rae_util.Vclock.now (Disk.clock disk) in
  ignore (Controller.exec ctl (Op.Create (p "/trigger", 0o644)));
  let sim_ms =
    Int64.to_float (Int64.sub (Rae_util.Vclock.now (Disk.clock disk)) sim_before) /. 1e6
  in
  let reads_after, _ = counts () in
  (Controller.last_recovery ctl, sim_ms, reads_after - reads_before, List.length ops)

let ckpt_policy = { Controller.default_policy with Controller.ckpt_enabled = true }

(* Each recovery is a single event on freshly built state, so one stray
   scheduler hiccup, GC slice or the process's first warm-up lands
   squarely in the number: take the fastest of a few full rebuild+recover
   rounds (one under --quick).  The simulated time, device reads and op
   count are the same in every round. *)
let best_recovery ~policy window =
  let wall (r, _, _, _) =
    match r with Some r -> r.Report.r_wall_seconds | None -> Float.infinity
  in
  let rounds = if !quick then 1 else 3 in
  let best = ref (recovery_run ~policy window) in
  for _ = 2 to rounds do
    let run = recovery_run ~policy window in
    if wall run < wall !best then best := run
  done;
  !best

let e5_recovery_latency () =
  section "E5 | Recovery latency vs in-flight window (paper 4.3: time to recover)";
  Printf.printf "%-8s %12s %12s %12s %10s %10s %14s\n" "window" "recovery" "ckpt-wall" "simulated"
    "replayed" "handoff" "device reads";
  List.iter
    (fun window ->
      let cold, sim_ms, reads, nops = best_recovery ~policy:Controller.default_policy window in
      let warm, _, _, _ = best_recovery ~policy:ckpt_policy window in
      match (cold, warm) with
      | Some r, Some rc ->
          Printf.printf "%-8d %10.2fms %10.2fms %10.2fms %10d %10d %14d\n" nops
            (r.Report.r_wall_seconds *. 1000.)
            (rc.Report.r_wall_seconds *. 1000.)
            sim_ms r.Report.r_replayed r.Report.r_handoff_blocks reads;
          let w = string_of_int window in
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/wall") ~unit:"ms"
            (r.Report.r_wall_seconds *. 1000.);
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/ckpt-wall") ~unit:"ms"
            (rc.Report.r_wall_seconds *. 1000.);
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/sim") ~unit:"ms" sim_ms;
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/replayed") ~unit:"ops"
            (float_of_int r.Report.r_replayed);
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/ckpt-replayed") ~unit:"ops"
            (float_of_int rc.Report.r_replayed)
      | _ -> Printf.printf "%-8d (no recovery?)\n" window)
    (if !quick then [ 8; 32; 128 ] else [ 8; 16; 32; 64; 128; 256; 512; 1024 ]);
  Printf.printf
    "\nExpected shape: cold recovery time grows roughly linearly with the recorded\n\
     window (constrained-mode replay dominates); the checkpoint arm replays only\n\
     the suffix past the last fold, so its wall time stays near-flat (E-ckpt\n\
     enforces the floor).\n"

(* ---------------------------------------------------------------- *)
(* E-ckpt: warm-shadow checkpointing, the O(window) -> O(delta) claim *)
(* ---------------------------------------------------------------- *)

let e_ckpt () =
  section "E-ckpt | Warm-shadow checkpointing: recovery replays O(delta), not O(window)";
  Printf.printf "%-8s %12s %12s %9s %11s %11s %8s\n" "window" "cold-wall" "ckpt-wall" "speedup"
    "replayed" "d-replayed" "seeded";
  let floor_violations = ref [] in
  List.iter
    (fun window ->
      let cold, _, _, _ = best_recovery ~policy:Controller.default_policy window in
      let warm, _, _, _ = best_recovery ~policy:ckpt_policy window in
      match (cold, warm) with
      | Some r, Some rc ->
          let speedup =
            if rc.Report.r_wall_seconds > 0. then r.Report.r_wall_seconds /. rc.Report.r_wall_seconds
            else Float.infinity
          in
          Printf.printf "%-8d %10.2fms %10.2fms %8.1fx %11d %11d %8b\n" window
            (r.Report.r_wall_seconds *. 1000.)
            (rc.Report.r_wall_seconds *. 1000.)
            speedup r.Report.r_replayed rc.Report.r_replayed rc.Report.r_seeded;
          let w = string_of_int window in
          json_note ~sec:"E-ckpt" ~name:("window-" ^ w ^ "/cold-wall") ~unit:"ms"
            (r.Report.r_wall_seconds *. 1000.);
          json_note ~sec:"E-ckpt" ~name:("window-" ^ w ^ "/ckpt-wall") ~unit:"ms"
            (rc.Report.r_wall_seconds *. 1000.);
          json_note ~sec:"E-ckpt" ~name:("window-" ^ w ^ "/speedup") ~unit:"x" speedup;
          (* Where the seeded recovery's time went, phase by phase. *)
          List.iter
            (fun ph ->
              json_note ~sec:"E-ckpt"
                ~name:("window-" ^ w ^ "/ckpt-phase/" ^ ph.Report.ph_name)
                ~unit:"ms"
                (Int64.to_float ph.Report.ph_ns /. 1e6))
            rc.Report.r_phases;
          if not rc.Report.r_seeded then
            floor_violations :=
              Printf.sprintf "window %d: checkpoint arm did not seed" window :: !floor_violations;
          if window >= 64 && speedup < 2.0 then
            floor_violations :=
              Printf.sprintf "window %d: speedup %.2fx < 2x" window speedup :: !floor_violations
      | _ -> floor_violations := Printf.sprintf "window %d: no recovery" window :: !floor_violations)
    (if !quick then [ 64 ] else [ 64; 256; 1024 ]);
  if !floor_violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "E-ckpt: %s\n" v) (List.rev !floor_violations);
    exit 1
  end;
  Printf.printf
    "\nExpected shape: the checkpoint arm takes the warm shadow itself (no copy)\n\
     and replays only the ops past the fold cursor, so its replay is bounded by\n\
     the fold interval while the cold arm pays fsck + O(window) replay; the\n\
     seeded arm's metadata download still grows with the dirty set (the\n\
     ckpt-phase notes split it out).  >=2x at window>=64 is the enforced floor.\n"

(* ---------------------------------------------------------------- *)
(* E-commit: the group commit, timed and its allocations counted       *)
(* ---------------------------------------------------------------- *)

(* A pwrite + fsync loop on rfsd's image (8192 blocks, 1024 inodes),
   over blocks the files already own: each commit journals the
   inode-table block and the superblock and writes the data block ahead
   of them.  Nothing is allocated on disk, so the direct major words
   repeat exactly, and a commit that allocates any 4 KiB block image
   (514 words with its header) breaks the ceiling (EXPERIMENTS.md
   E-commit). *)
let e_commit () =
  section "E-commit | Group commit: pwrite + fsync over allocated blocks (rfsd's image)";
  let _, _, b = fresh_base () in
  let files = 16 and file_bytes = 4 * bs and chunk = 1024 in
  let fds =
    Array.init files (fun i ->
        let fd = ok (Base.openf b (p (Printf.sprintf "/spool%d" i)) Types.flags_create) in
        ignore (ok (Base.pwrite b fd ~off:0 (String.make file_bytes 's')));
        fd)
  in
  let data = String.make chunk 'm' in
  let commit i =
    let fd = fds.(i mod files) in
    ignore (ok (Base.pwrite b fd ~off:(i / files * chunk mod file_bytes) data));
    ignore (ok (Base.fsync b fd))
  in
  let batch = 1000 and batches = if !quick then 2 else 20 in
  (* Warm: every block the loop touches is cached. *)
  for i = 0 to batch - 1 do
    commit i
  done;
  let words () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let j0 = Base.journal_stats b in
  let w = ref 0. and us = ref [] in
  for k = 1 to batches do
    let w0 = words () and t0 = now_s () in
    for i = k * batch to ((k + 1) * batch) - 1 do
      commit i
    done;
    let t1 = now_s () and w1 = words () in
    w := !w +. (w1 -. w0);
    us := ((t1 -. t0) *. 1e6 /. float_of_int batch) :: !us
  done;
  let n = batch * batches in
  let j1 = Base.journal_stats b in
  let per_commit = !w /. float_of_int n in
  let blocks =
    float_of_int (j1.Rae_journal.Journal.blocks_logged - j0.Rae_journal.Journal.blocks_logged)
    /. float_of_int (j1.Rae_journal.Journal.commits - j0.Rae_journal.Journal.commits)
  in
  let a = Array.of_list (List.sort compare !us) in
  let q f = a.(min (Array.length a - 1) (int_of_float (f *. float_of_int (Array.length a)))) in
  Printf.printf "  %d commits: %.2f us/commit (quartiles %.2f-%.2f over %d batches of %d)\n" n
    (q 0.5) (q 0.25) (q 0.75) batches batch;
  Printf.printf "  journal blocks per commit: %.2f\n" blocks;
  let ceiling = 513. in
  Printf.printf "  direct major words per commit: %.1f (ceiling %.0f)\n" per_commit ceiling;
  json_note ~sec:"E-commit" ~name:"us-per-commit" ~unit:"us" (q 0.5);
  json_note ~sec:"E-commit" ~name:"journal-blocks-per-commit" ~unit:"blocks" blocks;
  json_note ~sec:"E-commit" ~name:"direct-major-words-per-commit" ~unit:"words" per_commit;
  if per_commit > ceiling then begin
    Printf.eprintf "E-commit: %.1f direct major words per commit > %.0f\n" per_commit ceiling;
    exit 1
  end;
  Printf.printf
    "\nExpected shape: 0 direct major words per commit: the journal's header blocks,\n\
     the ordered data write, the superblock and every rewritten block go through\n\
     buffers the commit already owns.\n"

(* ---------------------------------------------------------------- *)
(* E-kernel: the base's checksum and directory-lookup kernels, alone  *)
(* ---------------------------------------------------------------- *)

(* The CRC32C of one buffer at three sizes (a small wire frame, a
   block, a 16 KiB reply), and one [Dirent.find] over a full directory
   block: 146 live records, about a varmail spool's count of mails.  Their
   19-byte names share their first 16 bytes, so the lookup compares most of
   each name: the walk's worst case.  A hit finds the last record, a miss
   compares every name.  Times are the median of the rounds.  The words are minor words per call, which
   repeat exactly: a miss allocates nothing and a hit only the entry it
   returns ([Some], [Ok] and the record), and more is a floor violation
   (EXPERIMENTS.md E-kernel).

   Then the tables (E-tables): int [mem] and [find_opt], hit and miss, on
   tables of 64 and 4,096 block numbers strided by 4,096, through the
   generic [Hashtbl] and through [Rae_util.Tbl.Int]; and a name lookup
   among the same block's 146 names, generic against [Rae_util.Tbl.Str].
   The int table's [mem] and miss rows, and the name table's miss, have
   a ceiling of 0 words per call.

   Last, a 4 KiB block read through [Device.of_disk] (E-buffers): fresh,
   a new copy per read, and recycled, each read handing its buffer back
   for the next to refill.  The words are direct major words per read
   (a block image skips the minor heap); the recycled row has a ceiling
   of 0. *)
let e_kernel () =
  section
    (Printf.sprintf "E-kernel | CRC32C (%s), Dirent.find over a full block, and the tables"
       Rae_util.Checksum.kernel);
  let rounds = reps 7 in
  let us_per_call ~calls f =
    time_runs ~reps:rounds (fun () ->
        for _ = 1 to calls do
          f ()
        done)
    *. 1e6 /. float_of_int calls
  in
  List.iter
    (fun (label, n) ->
      let b = Bytes.init n (fun i -> Char.chr (i * 31 land 0xFF)) in
      let us =
        us_per_call ~calls:(sc (100_000_000 / n)) (fun () ->
            ignore (Sys.opaque_identity (Rae_util.Checksum.crc32c_int ~init:0 b ~pos:0 ~len:n)))
      in
      let gbs = float_of_int n /. (us *. 1e3) in
      Printf.printf "  crc32c %6s: %7.3f us  %6.2f GB/s\n" label us gbs;
      json_note ~sec:"E-kernel" ~name:("crc32c-" ^ label) ~unit:"us" us;
      json_note ~sec:"E-kernel" ~name:("crc32c-" ^ label ^ "-gbs") ~unit:"GB/s" gbs)
    [ ("256B", 256); ("4KiB", 4096); ("16KiB", 16384) ];
  let module Dirent = Rae_format.Dirent in
  let b = Dirent.empty_block () in
  let name i = Printf.sprintf "m%018d" i in
  let n = ref 0 in
  while Dirent.insert b ~name:(name !n) ~ino:(!n + 1) ~kind_code:(Types.kind_code Types.Regular) do
    incr n
  done;
  let entry_words = 8. in
  let violations = ref [] in
  (* Minor words [f] allocates, net of an empty call. *)
  let minor f =
    let run f =
      let w0 = Gc.minor_words () in
      f ();
      Gc.minor_words () -. w0
    in
    let idle = run (fun () -> ()) in
    run f -. idle
  in
  List.iter
    (fun (label, probe, ceiling) ->
      let find () = ignore (Sys.opaque_identity (Dirent.find b probe)) in
      let us = us_per_call ~calls:(sc 200_000) find in
      let words =
        let calls = 1000 in
        minor (fun () ->
            for _ = 1 to calls do
              find ()
            done)
        /. float_of_int calls
      in
      Printf.printf "  Dirent.find %-4s (%d entries): %6.3f us  %4.1f words/call (ceiling %.0f)\n"
        label !n us words ceiling;
      json_note ~sec:"E-kernel" ~name:("dirent-find-" ^ label) ~unit:"us" us;
      json_note ~sec:"E-kernel" ~name:("dirent-find-" ^ label ^ "-words") ~unit:"words" words;
      if words > ceiling then
        violations :=
          Printf.sprintf "Dirent.find %s: %.1f minor words per call > %.0f" label words ceiling
          :: !violations)
    [ ("hit", name (!n - 1), entry_words); ("miss", name !n, 0.) ];
  (* One row: [probe] runs once per key of [keys]; a loop, so that no
     closure is allocated per call. *)
  let table_row label keys probe ceiling =
    let nkeys = Array.length keys in
    let all () =
      for i = 0 to nkeys - 1 do
        probe keys.(i)
      done
    in
    let rounds_per_call = max 1 (sc 200_000 / nkeys) in
    let ns =
      time_runs ~reps:rounds (fun () ->
          for _ = 1 to rounds_per_call do
            all ()
          done)
      *. 1e9
      /. float_of_int (rounds_per_call * nkeys)
    in
    let words = minor all /. float_of_int nkeys in
    (match ceiling with
    | Some c ->
        Printf.printf "  %-34s %6.1f ns  %4.1f words/call (ceiling %.0f)\n" label ns words c;
        if words > c then
          violations :=
            Printf.sprintf "%s: %.1f minor words per call > %.0f" label words c :: !violations
    | None -> Printf.printf "  %-34s %6.1f ns  %4.1f words/call\n" label ns words);
    json_note ~sec:"E-kernel" ~name:label ~unit:"ns" ns;
    json_note ~sec:"E-kernel" ~name:(label ^ "-words") ~unit:"words" words
  in
  let module Itbl = Rae_util.Tbl.Int in
  List.iter
    (fun size ->
      let keys = Array.init size (fun i -> i * 4096) in
      let misses = Array.map (fun k -> k + 1) keys in
      let generic = Hashtbl.create size and t = Itbl.create size in
      Array.iter
        (fun k ->
          Hashtbl.replace generic k k;
          Itbl.replace t k k)
        keys;
      let row what keys probe ceiling =
        table_row (Printf.sprintf "int-%s-%d" what size) keys probe ceiling
      in
      row "mem-hit-generic" keys (fun k -> ignore (Sys.opaque_identity (Hashtbl.mem generic k))) None;
      row "mem-hit-tbl" keys (fun k -> ignore (Sys.opaque_identity (Itbl.mem t k))) (Some 0.);
      row "mem-miss-generic" misses (fun k -> ignore (Sys.opaque_identity (Hashtbl.mem generic k))) None;
      row "mem-miss-tbl" misses (fun k -> ignore (Sys.opaque_identity (Itbl.mem t k))) (Some 0.);
      row "find-hit-generic" keys
        (fun k -> ignore (Sys.opaque_identity (Hashtbl.find_opt generic k)))
        None;
      row "find-hit-tbl" keys (fun k -> ignore (Sys.opaque_identity (Itbl.find_opt t k))) None;
      row "find-miss-generic" misses
        (fun k -> ignore (Sys.opaque_identity (Hashtbl.find_opt generic k)))
        None;
      row "find-miss-tbl" misses (fun k -> ignore (Sys.opaque_identity (Itbl.find_opt t k))) (Some 0.))
    [ 64; 4096 ];
  let names = Array.init !n name in
  let absent = Array.init !n (fun i -> name (!n + i)) in
  let generic = Hashtbl.create !n and t = Rae_util.Tbl.Str.create !n in
  Array.iteri
    (fun i s ->
      Hashtbl.replace generic s i;
      Rae_util.Tbl.Str.replace t s i)
    names;
  table_row "name-find-hit-generic" names
    (fun s -> ignore (Sys.opaque_identity (Hashtbl.find_opt generic s)))
    None;
  table_row "name-find-hit-tbl" names
    (fun s -> ignore (Sys.opaque_identity (Rae_util.Tbl.Str.find_opt t s)))
    None;
  table_row "name-find-miss-generic" absent
    (fun s -> ignore (Sys.opaque_identity (Hashtbl.find_opt generic s)))
    None;
  table_row "name-find-miss-tbl" absent
    (fun s -> ignore (Sys.opaque_identity (Rae_util.Tbl.Str.find_opt t s)))
    (Some 0.);
  let direct_major f =
    let words () =
      let _, promoted, major = Gc.counters () in
      major -. promoted
    in
    let run f =
      let w0 = words () in
      f ();
      words () -. w0
    in
    let idle = run (fun () -> ()) in
    run f -. idle
  in
  let nblocks = 64 in
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let read_row label read ceiling =
    let all calls =
      for i = 1 to calls do
        read (i land (nblocks - 1))
      done
    in
    let calls = sc 200_000 in
    let ns = time_runs ~reps:rounds (fun () -> all calls) *. 1e9 /. float_of_int calls in
    let words = direct_major (fun () -> all 1000) /. 1000. in
    (match ceiling with
    | Some c ->
        Printf.printf "  %-34s %6.1f ns  %6.1f direct major words/read (ceiling %.0f)\n" label ns
          words c;
        if words > c then
          violations :=
            Printf.sprintf "%s: %.1f direct major words per read > %.0f" label words c
            :: !violations
    | None -> Printf.printf "  %-34s %6.1f ns  %6.1f direct major words/read\n" label ns words);
    json_note ~sec:"E-kernel" ~name:label ~unit:"ns" ns;
    json_note ~sec:"E-kernel" ~name:(label ^ "-words") ~unit:"words" words
  in
  (* Two handles: nothing is ever handed back to the fresh one. *)
  let fresh = Device.of_disk disk and recycled = Device.of_disk disk in
  read_row "block-read-fresh" (fun blk -> ignore (Sys.opaque_identity (Device.read fresh blk))) None;
  read_row "block-read-recycled"
    (fun blk -> Device.recycle recycled (Sys.opaque_identity (Device.read recycled blk)))
    (Some 0.);
  if !violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "E-kernel: %s\n" v) (List.rev !violations);
    exit 1
  end;
  Printf.printf
    "\nExpected shape: CRC32C throughput grows with the buffer up to the three-chain\n\
     kernel's speed; Dirent.find checks every record in one walk, allocating only\n\
     the entry it returns.  The int table probes in a fraction of the generic\n\
     table's time and allocates nothing but a hit's [Some]; the name table\n\
     hashes eight bytes per step and compares with String.equal.  A fresh block\n\
     read allocates one 4 KiB image (514 words) straight in the major heap; a\n\
     recycled read refills the buffer the last read handed back, and allocates\n\
     nothing.\n"

(* ---------------------------------------------------------------- *)
(* E-shadow: the fast path — caches, hints and batching vs naive     *)
(* ---------------------------------------------------------------- *)

(* E-shadow-e: what a warm-checkpoint fold costs, op by op.  A bare base
   runs Metadata ops and the run is cut at every group commit, as the
   controller cuts it: each window keeps its S0 descriptors, its recorded
   ops and outcomes, and the device writes of the commit that closes it.
   Replaying the windows in order from the mounted image therefore puts
   the disk at each window's S0 in turn.  Each window is then folded as
   the checkpoint folds it: attach, then the first 32 non-read ops in
   one batch (cold: every block and inode is a first touch), then the
   next 31 (warm: what the same shadow pays once its caches are full).
   rfsd's fold interval is 32 and its commit interval 64, so the cold
   fold is the one every window pays.  The disk is rfsd's 8192 blocks;
   it has 4096 inodes instead of 1024, or the 100 windows would run out
   of inodes around window 70 and fill with ENOSPC outcomes the fold
   skips. *)

type fold_window = {
  fw_fds : (Types.fd * Types.ino * Types.open_flags) list;
  fw_entries : Op.recorded list;  (* non-read ops only, as the fold sees them *)
  fw_writes : (int * bytes) list;  (* the closing commit's device writes, in order *)
}

let fold_cold_ops = 32
let fold_warm_ops = 31

let record_fold_windows ~windows =
  let disk = mk_disk () in
  let raw = Device.of_disk disk in
  let writes = ref [] in
  let dev =
    {
      raw with
      Device.dev_write =
        (fun blk data ->
          writes := (blk, Bytes.copy data) :: !writes;
          raw.Device.dev_write blk data);
    }
  in
  ignore (ok (Base.mkfs dev ~ninodes:4096 ()));
  let b = ok (Base.mount dev) in
  let image = Disk.snapshot disk in
  writes := [];
  let committed = ref false in
  Base.on_commit b (fun ~commit_seq:_ -> committed := true);
  let ops = W.ops W.Metadata (Rae_util.Rng.create 7L) ~count:(2 * (windows + 1) * 64) in
  let out = ref [] and nout = ref 0 and cur = ref [] and fds = ref (Base.fd_table b) in
  List.iteri
    (fun seq op ->
      if !nout < windows then begin
        let outcome = Base.exec b op in
        if not (Op.is_pure_read op) then cur := { Op.op; outcome; seq } :: !cur;
        if !committed then begin
          committed := false;
          out := { fw_fds = !fds; fw_entries = List.rev !cur; fw_writes = List.rev !writes } :: !out;
          incr nout;
          cur := [];
          writes := [];
          fds := Base.fd_table b
        end
      end)
    ops;
  (disk, image, List.rev !out)

let rec split_at n = function
  | x :: rest when n > 0 ->
      let a, b = split_at (n - 1) rest in
      (x :: a, b)
  | l -> ([], l)

(* One pass over every window from the mounted image.  [fold] gets the
   S0 device and the window, and must not write. *)
let replay_fold_windows disk image windows fold =
  Disk.restore disk image;
  let dev = Device.of_disk disk in
  List.iter
    (fun w ->
      fold dev w;
      List.iter (fun (blk, data) -> Device.write dev blk data) w.fw_writes)
    windows

let attach_window dev w =
  let sh = ok (Shadow.attach dev) in
  List.iter (fun (fd, ino, flags) -> ok (Shadow.install_fd sh ~fd ~ino flags)) w.fw_fds;
  sh

let fold_cost () =
  subsection "E-shadow-e | warm-checkpoint fold: attach + 32 ops cold, 31 ops warm, per op kind";
  let nwindows = sc 100 in
  let disk, image, windows = record_fold_windows ~windows:nwindows in
  let nops sel = List.fold_left (fun n w -> n + List.length (sel w.fw_entries)) 0 windows in
  let cold_of l = fst (split_at fold_cold_ops l) in
  let warm_of l = fst (split_at fold_warm_ops (snd (split_at fold_cold_ops l))) in
  let n_cold = nops cold_of and n_warm = nops warm_of in
  let errors =
    List.fold_left
      (fun n w -> n + List.length (List.filter (fun r -> Result.is_error r.Op.outcome) w.fw_entries))
      0 windows
  in
  Printf.printf "%d commit windows of metadata ops (seed 7), %d cold + %d warm folded ops, %d error outcomes\n"
    (List.length windows) n_cold n_warm errors;
  (* Exact allocation counts, from a pass without the timing hook: minor
     words, and words allocated straight into the major heap (blocks over
     256 words, such as a 4 KiB buffer).  Each window starts on an empty
     minor heap, which one fold does not fill: a count read across a
     minor collection drifts.  One device serves every window, so an
     overlay miss refills a buffer an earlier miss handed back
     (E-buffers): what is left of the direct words is blocks the overlay
     keeps, and reads that are not view or rmw misses. *)
  let words () =
    let _, promoted, major = Gc.counters () in
    (Gc.minor_words (), major -. promoted)
  in
  let words_cold = ref (0., 0.) and words_warm = ref (0., 0.) in
  let add acc (m0, d0) (m1, d1) =
    let m, d = !acc in
    acc := (m +. (m1 -. m0), d +. (d1 -. d0))
  in
  replay_fold_windows disk image windows (fun dev w ->
      Gc.minor ();
      let w0 = words () in
      let sh = attach_window dev w in
      ignore (Shadow.exec_constrained_window sh (cold_of w.fw_entries));
      let w1 = words () in
      ignore (Shadow.exec_constrained_window sh (warm_of w.fw_entries));
      let w2 = words () in
      add words_cold w0 w1;
      add words_warm w1 w2);
  let per (m, d) n = (m /. float_of_int n, d /. float_of_int n) in
  let per_cold, direct_cold = per !words_cold n_cold and per_warm, direct_warm = per !words_warm n_warm in
  (* Timed passes.  The hook charges each op the time since the previous
     op (or since the attach); the batch's write-back and summary check
     after its last op is the fold's epilogue. *)
  let reps = reps 11 in
  let kinds = Hashtbl.create 16 in
  let charge kind phase ns =
    let cold, warm, n_c, n_w =
      Option.value (Hashtbl.find_opt kinds kind) ~default:(0., 0., 0, 0)
    in
    Hashtbl.replace kinds kind
      (match phase with
      | `Cold -> (cold +. ns, warm, n_c + 1, n_w)
      | `Warm -> (cold, warm +. ns, n_c, n_w + 1))
  in
  let now () = Int64.to_float (Rae_obs.Clock.now_ns ()) in
  let fold_us = ref [] and attach_us = ref [] and cold_us = ref [] and warm_us = ref [] in
  replay_fold_windows disk image windows (fun dev w -> ignore (attach_window dev w));
  Gc.compact ();
  for _ = 1 to reps do
    Gc.major ();
    let t_fold = ref 0. and t_attach = ref 0. and t_cold = ref 0. and t_warm = ref 0. in
    replay_fold_windows disk image windows (fun dev w ->
        let last = ref 0. and phase = ref `Cold in
        let on_op r _ =
          let t = now () in
          charge (Op.kind_to_string (Op.kind r.Op.op)) !phase (t -. !last);
          last := t
        in
        let t0 = now () in
        let sh = attach_window dev w in
        let t1 = now () in
        last := t1;
        ignore (Shadow.exec_constrained_window ~on_op sh (cold_of w.fw_entries));
        let t2 = now () in
        phase := `Warm;
        last := t2;
        ignore (Shadow.exec_constrained_window ~on_op sh (warm_of w.fw_entries));
        let t3 = now () in
        t_fold := !t_fold +. (t2 -. t0);
        t_attach := !t_attach +. (t1 -. t0);
        t_cold := !t_cold +. (t2 -. t1);
        t_warm := !t_warm +. (t3 -. t2));
    let nw = float_of_int (List.length windows) in
    fold_us := (!t_fold /. nw /. 1e3) :: !fold_us;
    attach_us := (!t_attach /. nw /. 1e3) :: !attach_us;
    cold_us := (!t_cold /. float_of_int n_cold /. 1e3) :: !cold_us;
    warm_us := (!t_warm /. float_of_int n_warm /. 1e3) :: !warm_us
  done;
  let stats l =
    let a = Array.of_list (List.sort compare l) in
    let q f = a.(min (Array.length a - 1) (int_of_float (f *. float_of_int (Array.length a)))) in
    (q 0.5, q 0.25, q 0.75)
  in
  let row name unit l =
    let med, q1, q3 = stats l in
    Printf.printf "  %-34s %9.2f %s   (quartiles %.2f-%.2f over %d reps)\n" name med unit q1 q3
      (List.length l);
    json_note ~sec:"E-shadow" ~name:("fold/" ^ name) ~unit med
  in
  row "fold-per-window" "us" !fold_us;
  row "attach-per-window" "us" !attach_us;
  row "cold-per-op" "us" !cold_us;
  row "warm-per-op" "us" !warm_us;
  Printf.printf "  %-34s %9.1f words (cold)  %9.1f words (warm)\n" "minor words per folded op"
    per_cold per_warm;
  Printf.printf "  %-34s %9.1f words (cold)  %9.1f words (warm)\n" "direct major words per folded op"
    direct_cold direct_warm;
  json_note ~sec:"E-shadow" ~name:"fold/minor-words-per-cold-op" ~unit:"words" per_cold;
  json_note ~sec:"E-shadow" ~name:"fold/minor-words-per-warm-op" ~unit:"words" per_warm;
  json_note ~sec:"E-shadow" ~name:"fold/direct-major-words-per-cold-op" ~unit:"words" direct_cold;
  json_note ~sec:"E-shadow" ~name:"fold/direct-major-words-per-warm-op" ~unit:"words" direct_warm;
  Printf.printf "  per op kind (mean over reps; the epilogue is not charged to any op):\n";
  Printf.printf "  %-10s %8s %12s %8s %12s\n" "kind" "cold n" "cold us/op" "warm n" "warm us/op";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
  |> List.sort compare
  |> List.iter (fun (kind, (cold, warm, n_c, n_w)) ->
         let per t n = if n = 0 then 0. else t /. float_of_int n /. 1e3 in
         Printf.printf "  %-10s %8d %12.2f %8d %12.2f\n" kind (n_c / reps) (per cold n_c) (n_w / reps)
           (per warm n_w);
         json_note ~sec:"E-shadow" ~name:("fold/kind/" ^ kind ^ "/cold") ~unit:"us_per_op" (per cold n_c);
         json_note ~sec:"E-shadow" ~name:("fold/kind/" ^ kind ^ "/warm") ~unit:"us_per_op" (per warm n_w));
  (* Floor: the allocation count repeats exactly, so its ceiling is this
     code's count plus 10% (1242.9 words over the 100 windows, 475.4
     over the sampled 12); the code before the unboxed codec and the
     in-place decode allocated 2245.3 and 813.6. *)
  let ceiling = if !quick then 525. else 1370. in
  if per_cold > ceiling then
    [ Printf.sprintf "fold: %.1f minor words per cold folded op > %.0f" per_cold ceiling ]
  else []

(* Both arms run in this process on the same images, so the speedup is a
   host-independent shape: [fast_paths=false] is the seed's literal
   walk-and-scan execution, [fast_paths=true] the cached one,
   property-tested equivalent in test_shadowfs. *)
let e_shadow () =
  section "E-shadow | shadow fast path: resolution caches, alloc hints, batched folds";
  let naive_config = { Shadow.default_config with Shadow.fast_paths = false } in
  let fresh_with config =
    let disk = mk_disk () in
    let dev = Device.of_disk disk in
    ignore (ok (Rae_format.Mkfs.format dev ~ninodes:1024 ()));
    (disk, ok (Shadow.attach ~config dev))
  in
  let floor_violations = ref [] in

  subsection "E-shadow-a | micro-operations, fast vs naive (>=5x floor enforced)";
  let micro_setup sh =
    ignore (ok (Shadow.mkdir sh (p "/a") ~mode:0o755));
    ignore (ok (Shadow.mkdir sh (p "/a/b") ~mode:0o755));
    ignore (ok (Shadow.create sh (p "/a/b/leaf") ~mode:0o644));
    let fd = ok (Shadow.openf sh (p "/a/b/leaf") Types.flags_rw) in
    ignore (ok (Shadow.pwrite sh fd ~off:0 (String.make 8192 'x')))
  in
  let _, fast = fresh_with Shadow.default_config in
  let _, naive = fresh_with naive_config in
  micro_setup fast;
  micro_setup naive;
  let leaf = p "/a/b/leaf" and dir = p "/a/b" in
  let iters = sc 50_000 in
  let measure sh op =
    time_runs ~reps:(reps 3) (fun () ->
        match op with
        | `Lookup -> for _ = 1 to iters do ignore (Shadow.lookup sh leaf) done
        | `Stat -> for _ = 1 to iters do ignore (Shadow.stat sh leaf) done
        | `Readdir -> for _ = 1 to iters do ignore (Shadow.readdir sh dir) done)
  in
  Printf.printf "%-10s %12s %12s %9s\n" "op" "naive ns/op" "fast ns/op" "speedup";
  List.iter
    (fun (name, op) ->
      let t_naive = measure naive op and t_fast = measure fast op in
      let per t = t /. float_of_int iters *. 1e9 in
      let speedup = if t_fast > 0. then t_naive /. t_fast else Float.infinity in
      Printf.printf "%-10s %12.0f %12.0f %8.1fx\n" name (per t_naive) (per t_fast) speedup;
      json_note ~sec:"E-shadow" ~name:("micro/" ^ name ^ "-naive") ~unit:"ns_per_op" (per t_naive);
      json_note ~sec:"E-shadow" ~name:("micro/" ^ name ^ "-fast") ~unit:"ns_per_op" (per t_fast);
      json_note ~sec:"E-shadow" ~name:("micro/" ^ name ^ "-speedup") ~unit:"x" speedup;
      if speedup < 5.0 then
        floor_violations :=
          Printf.sprintf "micro %s: speedup %.2fx < 5x" name speedup :: !floor_violations)
    [ ("lookup", `Lookup); ("stat", `Stat); ("readdir", `Readdir) ];

  subsection "E-shadow-b | sustained shadow workloads, fast vs naive";
  Printf.printf "%-12s %14s %14s %9s\n" "workload" "naive (op/s)" "fast (op/s)" "speedup";
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 42L) ~count:(sc 2000) in
      let n = float_of_int (List.length ops) in
      let run config =
        time_runs ~reps:(reps 2) (fun () ->
            let _, sh = fresh_with config in
            run_ops Shadow.exec sh ops)
      in
      let t_naive = run naive_config and t_fast = run Shadow.default_config in
      let speedup = if t_fast > 0. then t_naive /. t_fast else Float.infinity in
      Printf.printf "%-12s %14.0f %14.0f %8.1fx\n" (W.profile_name profile) (n /. t_naive)
        (n /. t_fast) speedup;
      json_note ~sec:"E-shadow" ~name:(W.profile_name profile ^ "/naive") ~unit:"ops_per_s"
        (n /. t_naive);
      json_note ~sec:"E-shadow" ~name:(W.profile_name profile ^ "/fast") ~unit:"ops_per_s"
        (n /. t_fast);
      json_note ~sec:"E-shadow" ~name:(W.profile_name profile ^ "/speedup") ~unit:"x" speedup)
    [ W.Varmail; W.Fileserver; W.Metadata ];

  subsection "E-shadow-c | hot-path fold overhead, ckpt_fold_interval=8 vs ckpt off";
  (* The fold executes every recorded op but the pure reads a second
     time on the warm shadow, so on a zero-latency device its overhead is
     bounded below by shadow-op cost / base-op cost.  Two profiles
     bracket the range: Metadata is all mutations (worst case — every
     recorded op is folded), Varmail is the realistic serving mix.  The naive
     column folds with [ckpt_fast_paths = false], pricing the same fold
     before the fast-path work. *)
  Printf.printf "%-10s %12s %14s %14s %10s %10s\n" "workload" "off (op/s)" "fold8-naive"
    "fold8-fast" "naive ovh" "fast ovh";
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 9L) ~count:(sc 8000) in
      let n = float_of_int (List.length ops) in
      let fold8 = { ckpt_policy with Controller.ckpt_fold_interval = 8 } in
      (* The floors below compare arms of this table against each other,
         so the reps are interleaved (see [time_interleaved]). *)
      let one policy () =
        let _, dev, b = fresh_base () in
        let ctl = Controller.make ~policy ~device:dev b in
        run_ops Controller.exec ctl ops
      in
      let medians =
        time_interleaved ~reps:(reps 5)
          [|
            one Controller.default_policy;
            one { fold8 with Controller.ckpt_fast_paths = false };
            one fold8;
          |]
      in
      let t_off = medians.(0) and t_naive = medians.(1) and t_fast = medians.(2) in
      let ovh t = (t -. t_off) /. t_off *. 100. in
      let pname = W.profile_name profile in
      Printf.printf "%-10s %12.0f %14.0f %14.0f %+9.1f%% %+9.1f%%\n" pname (n /. t_off)
        (n /. t_naive) (n /. t_fast) (ovh t_naive) (ovh t_fast);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/off") ~unit:"ops_per_s" (n /. t_off);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/naive") ~unit:"ops_per_s" (n /. t_naive);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/fast") ~unit:"ops_per_s" (n /. t_fast);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/overhead-naive") ~unit:"pct"
        (ovh t_naive);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/overhead-fast") ~unit:"pct"
        (ovh t_fast);
      (* Shape floors.  Folding re-executes every op but the pure reads
         on the warm shadow, so overhead is bounded below by shadow-cost/base-cost and can
         never be literally free on a zero-latency device.  What the fast
         path must deliver: (a) on the all-mutation worst case — where
         the replay is pure shadow-mutation work — strictly less overhead
         than the naive fold (measured +16–35% vs +49–71% across runs);
         (b) on every profile, overhead within 10pp of the naive fold's
         (on the lighter varmail mix the shared fold bookkeeping
         dominates, leaving fast only a few points below naive).
         Both floors compare two noisy arms of the same run, so they are
         meaningless at --quick scale (1/8 ops, single rep) and only
         enforced on full runs; the large-margin micro floors above guard
         the smoke run. *)
      let worst_case = match profile with W.Metadata -> true | _ -> false in
      if (not !quick) && worst_case && ovh t_fast >= ovh t_naive then
        floor_violations :=
          Printf.sprintf "fold8 %s: fast overhead %+.1f%% not below naive %+.1f%%" pname
            (ovh t_fast) (ovh t_naive)
          :: !floor_violations;
      if (not !quick) && ovh t_fast > ovh t_naive +. 10. then
        floor_violations :=
          Printf.sprintf "fold8 %s: fast overhead %+.1f%% worse than naive %+.1f%%" pname
            (ovh t_fast) (ovh t_naive)
          :: !floor_violations)
    [ W.Metadata; W.Varmail ];

  subsection "E-shadow-d | chunked file contents: append, O(chunk) vs O(file) splice";
  let module Chunked = Rae_specfs.Chunked in
  let appends = sc 2000 in
  let piece = String.make 256 'z' in
  (* The seed representation, replicated locally: contents as one flat
     string, every write re-copies the whole file to splice. *)
  let naive_splice s ~off data =
    let len = String.length data in
    let b = Bytes.make (max (String.length s) (off + len)) '\000' in
    Bytes.blit_string s 0 b 0 (String.length s);
    Bytes.blit_string data 0 b off len;
    Bytes.unsafe_to_string b
  in
  let t_string =
    time_runs ~reps:(reps 3) (fun () ->
        let s = ref "" in
        for i = 0 to appends - 1 do
          s := naive_splice !s ~off:(i * 256) piece
        done)
  in
  let t_chunked =
    time_runs ~reps:(reps 3) (fun () ->
        let c = ref Chunked.empty in
        for i = 0 to appends - 1 do
          c := Chunked.write !c ~off:(i * 256) piece
        done)
  in
  let speedup = if t_chunked > 0. then t_string /. t_chunked else Float.infinity in
  Printf.printf "%d appends of 256 B:\n" appends;
  Printf.printf "  flat-string splice: %10.0f appends/s\n" (float_of_int appends /. t_string);
  Printf.printf "  chunked contents  : %10.0f appends/s  (%.1fx)\n"
    (float_of_int appends /. t_chunked)
    speedup;
  json_note ~sec:"E-shadow" ~name:"append/string" ~unit:"appends_per_s"
    (float_of_int appends /. t_string);
  json_note ~sec:"E-shadow" ~name:"append/chunked" ~unit:"appends_per_s"
    (float_of_int appends /. t_chunked);
  json_note ~sec:"E-shadow" ~name:"append/speedup" ~unit:"x" speedup;

  floor_violations := List.rev_append (fold_cost ()) !floor_violations;

  if !floor_violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "E-shadow: %s\n" v) (List.rev !floor_violations);
    exit 1
  end;
  Printf.printf
    "\nExpected shape: the cached walk resolves from the generation-guarded path\n\
     cache and per-directory index instead of re-reading and re-checking every\n\
     block on the path, so micro-ops gain >=5x (enforced); sustained workloads\n\
     gain a smaller multiple (mutations still pay full validation).  The fold\n\
     replays every recorded op but the pure reads once on the warm shadow,\n\
     so on a zero-latency in-memory device its overhead has a hard floor of\n\
     shadow-cost/base-cost — it can never be literally free here, only on\n\
     devices whose I/O latency dwarfs the shadow's in-memory replay.\n\
     Enforced shape (full runs): on the all-mutation worst case (metadata)\n\
     the fast fold costs strictly less than the naive fold, and on no\n\
     profile is it more than 10pp worse.  Chunked appends stop re-copying\n\
     the file.\n"

(* E-shadow-e on its own, for A/B runs of the fold. *)
let e_fold () =
  section "E-fold | warm-checkpoint fold cost (E-shadow-e alone)";
  match fold_cost () with
  | [] -> ()
  | violations ->
      List.iter (fun v -> Printf.eprintf "E-fold: %s\n" v) violations;
      exit 1

(* ---------------------------------------------------------------- *)
(* E6: the cost of extensive runtime checks                          *)
(* ---------------------------------------------------------------- *)

let e6_check_cost () =
  section "E6 | Extensive runtime checks: affordable for the shadow, not the base";
  let ops = W.ops W.Metadata (Rae_util.Rng.create 5L) ~count:(sc 6000) in
  let n = float_of_int (List.length ops) in
  (* Both tables here are on/off A-vs-B comparisons, so the reps are
     interleaved (see [time_interleaved]). *)
  let shadow_arm checks () =
    let _, s = fresh_shadow ~checks () in
    run_ops Shadow.exec s ops
  in
  let medians =
    time_interleaved ~reps:(reps 5) [| shadow_arm true; shadow_arm false |]
  in
  let with_checks = medians.(0) and without_checks = medians.(1) in
  let _, counted = fresh_shadow ~checks:true () in
  run_ops Shadow.exec counted ops;
  Printf.printf "shadow, checks ON : %10.0f op/s\n" (n /. with_checks);
  Printf.printf "shadow, checks OFF: %10.0f op/s\n" (n /. without_checks);
  Printf.printf "check slowdown    : %10.1f%%  (%d checks executed)\n"
    ((with_checks -. without_checks) /. without_checks *. 100.)
    (Shadow.checks_performed counted);
  let base_arm on () =
    let _, _, b =
      fresh_base ~config:{ Base.default_config with Base.validate_on_commit = on } ()
    in
    run_ops Base.exec b ops
  in
  let medians = time_interleaved ~reps:(reps 5) [| base_arm true; base_arm false |] in
  let v_on = medians.(0) and v_off = medians.(1) in
  Printf.printf "base, validate-on-commit ON : %10.0f op/s\n" (n /. v_on);
  Printf.printf "base, validate-on-commit OFF: %10.0f op/s (validation overhead %.1f%%)\n"
    (n /. v_off)
    ((v_on -. v_off) /. v_off *. 100.)

(* ---------------------------------------------------------------- *)
(* E7: dentry cache vs full-path walks                               *)
(* ---------------------------------------------------------------- *)

let e7_lookup_depth () =
  section "E7 | Path lookup vs depth: base (dentry cache) vs shadow (walk from root)";
  Printf.printf "%-8s %16s %16s %10s\n" "depth" "base (ns/op)" "shadow (ns/op)" "ratio";
  List.iter
    (fun depth ->
      let _, _, b = fresh_base () in
      (* The paper's claim is about the shadow that omits the dentry
         cache, i.e. the naive shadow; the default (fast-path) shadow
         carries a resolution cache that removes this asymmetry — its
         flat profile is measured in e-shadow. *)
      let _, s = fresh_shadow ~fast_paths:false () in
      let rec build exec fs prefix d =
        if d > 0 then begin
          let dir = prefix ^ "/d" in
          ignore (exec fs (Op.Mkdir (p dir, 0o755)));
          build exec fs dir (d - 1)
        end
        else ignore (exec fs (Op.Create (p (prefix ^ "/leaf"), 0o644)))
      in
      build Base.exec b "" depth;
      build Shadow.exec s "" depth;
      let leaf = p (String.concat "" (List.init depth (fun _ -> "/d")) ^ "/leaf") in
      let iters = sc 8000 in
      let tb =
        time_runs ~reps:(reps 2) (fun () ->
            for _ = 1 to iters do
              ignore (Base.lookup b leaf)
            done)
      in
      let ts =
        time_runs ~reps:(reps 2) (fun () ->
            for _ = 1 to iters do
              ignore (Shadow.lookup s leaf)
            done)
      in
      let per x = x /. float_of_int iters *. 1e9 in
      Printf.printf "%-8d %16.0f %16.0f %9.1fx\n" depth (per tb) (per ts) (ts /. tb))
    (if !quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16 ]);
  Printf.printf
    "\nExpected shape: both costs grow with depth, but the naive shadow pays\n\
     a full block read plus dirent scan per component (~us/component) while\n\
     the base's dentry cache reduces each component to a hash hit (~0.1\n\
     us/component) — a large, roughly depth-independent ratio.  The default\n\
     fast-path shadow resolves whole paths from its generation-guarded\n\
     cache and drops below the base (bench e-shadow).\n"

(* ---------------------------------------------------------------- *)
(* E8: end-to-end availability under injected bugs                   *)
(* ---------------------------------------------------------------- *)

let e8_availability () =
  section "E8 | Availability: injected bug classes masked under live workloads";
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
  Printf.printf "%-12s %8s %11s %12s %13s %11s\n" "workload" "ops" "recoveries" "mismatches"
    "app errors" "fsck";
  List.iter
    (fun profile ->
      let bugs =
        Bug_registry.arm ~rng:(Rae_util.Rng.create 9L) (List.filter_map Bug_registry.find ids)
      in
      let _, dev, b =
        fresh_base ~config:{ Base.default_config with Base.commit_interval = 16 } ~bugs ()
      in
      let ctl = Controller.make ~device:dev b in
      let sp = Spec.make () in
      let ops = W.ops profile (Rae_util.Rng.create 77L) ~count:(sc 1200) in
      let mismatches = ref 0 and eio = ref 0 in
      List.iter
        (fun op ->
          let want = Spec.exec sp op in
          let got = Controller.exec ctl op in
          if not (Op.outcome_equal want got) then incr mismatches;
          match got with Error Errno.EIO -> incr eio | _ -> ())
        ops;
      ignore (Controller.sync ctl);
      let clean = Rae_fsck.Fsck.clean (Rae_fsck.Fsck.check_device dev) in
      Printf.printf "%-12s %8d %11d %12d %13d %11s\n" (W.profile_name profile) (List.length ops)
        (Controller.stats ctl).Controller.recoveries !mismatches !eio
        (if clean then "clean" else "DIRTY"))
    W.all_profiles;
  Printf.printf
    "\nExpected shape: recoveries > 0, zero spec mismatches, zero app-visible EIO,\n\
     clean images — detected runtime errors fully masked (the availability claim).\n"

(* ---------------------------------------------------------------- *)
(* E9: the shadow as a post-error testing tool                       *)
(* ---------------------------------------------------------------- *)

let e9_cross_check () =
  section "E9 | Cross-checking: discrepancy detection (paper 4.3, post-error testing)";
  let run ~cross_check =
    let bugs =
      Bug_registry.arm ~rng:(Rae_util.Rng.create 9L)
        (List.filter_map Bug_registry.find [ "stat-size-skew"; "crafted-name-panic" ])
    in
    let _, dev, b = fresh_base ~bugs () in
    let policy = { Controller.default_policy with Controller.cross_check } in
    let ctl = Controller.make ~policy ~device:dev b in
    let fd = ok (Controller.openf ctl (p "/f") Types.flags_create) in
    ignore (ok (Controller.pwrite ctl fd ~off:0 "12345"));
    ignore (ok (Controller.close ctl fd));
    for _ = 1 to 20 do
      ignore (Controller.stat ctl (p "/f"))
    done;
    ignore (Controller.create ctl (p "/pwn") ~mode:0o644);
    (Controller.stats ctl).Controller.discrepancies
  in
  Printf.printf "wrong-result bugs exposed with cross-check ON : %d discrepancy report(s)\n"
    (run ~cross_check:true);
  Printf.printf "wrong-result bugs exposed with cross-check OFF: %d discrepancy report(s)\n"
    (run ~cross_check:false);
  Printf.printf
    "\nExpected shape: the wrong-result bug (invisible to in-line detection) is\n\
     surfaced by constrained-mode cross-checking during an unrelated recovery.\n"

(* ---------------------------------------------------------------- *)
(* E10 ablation: block cache replacement policy (LRU vs 2Q)          *)
(* ---------------------------------------------------------------- *)

let e10_cache_policy () =
  section "E10 | Ablation: block cache policy (LRU vs 2Q) under hot-set + scan";
  Printf.printf
    "A small hot file is re-read between full scans of a large cold set; the\n\
     cache is sized so the scan footprint exceeds it.  2Q's probation queue\n\
     keeps scans from washing out the hot set.\n";
  let misses policy =
    let _, _, b =
      fresh_base
        ~config:{ Base.default_config with Base.cache_policy = policy; bcache_capacity = 24 }
        ()
    in
    (* Cold population: 600 files across one directory. *)
    let ncold = if !quick then 150 else 600 in
    for i = 0 to ncold - 1 do
      ignore (Base.exec b (Op.Create (p (Printf.sprintf "/cold%03d" i), 0o644)))
    done;
    let fd = ok (Base.openf b (p "/hot") Types.flags_create) in
    ignore (ok (Base.pwrite b fd ~off:0 (String.make 16384 'h')));
    ignore (ok (Base.sync b));
    (* Warm up, then measure. *)
    ignore (ok (Base.pread b fd ~off:0 ~len:16384));
    let s0 = Base.bcache_stats b in
    for _round = 1 to if !quick then 2 else 10 do
      for _ = 1 to 5 do
        ignore (ok (Base.pread b fd ~off:0 ~len:16384))
      done;
      for i = 0 to ncold - 1 do
        ignore (Base.exec b (Op.Stat (p (Printf.sprintf "/cold%03d" i))))
      done
    done;
    let s1 = Base.bcache_stats b in
    ( s1.Rae_cache.Lru.misses - s0.Rae_cache.Lru.misses,
      s1.Rae_cache.Lru.hits - s0.Rae_cache.Lru.hits )
  in
  let report name policy =
    let m, h = misses policy in
    Printf.printf "%-4s: %6d block-cache misses, %6d hits (hit rate %5.1f%%)\n" name m h
      (100. *. float_of_int h /. float_of_int (h + m))
  in
  report "LRU" `Lru;
  report "2Q" `Two_q;
  Printf.printf
    "\nFull-stack finding: the dentry and inode caches absorb most of the scan,\n\
     so at the block-cache level the policies converge — one reason the paper\n\
     calls these stacked caching policies hard to reason about.\n";
  subsection "E10b | the policies in isolation (synthetic hot-set + scan reference string)";
  let module L = Rae_cache.Lru.Make (Rae_util.Tbl.Int) in
  let module Q = Rae_cache.Two_q.Make (Rae_util.Tbl.Int) in
  let trace =
    (* 8-page hot set re-referenced between 128-page scans, 50 rounds. *)
    List.concat
      (List.init 50 (fun round ->
           List.init 8 Fun.id @ List.init 8 Fun.id
           @ List.init 128 (fun i -> 1000 + (round * 128) + i)))
  in
  let run find put =
    let hits = ref 0 in
    List.iter
      (fun k ->
        match find k with
        | Some _ -> incr hits
        | None -> put k ())
      trace;
    100. *. float_of_int !hits /. float_of_int (List.length trace)
  in
  let l = L.create ~capacity:32 () in
  let lru_rate = run (L.find l) (L.put l) in
  let q = Q.create ~capacity:32 ~kout_ratio:8.0 () in
  let twoq_rate = run (Q.find q) (Q.put q) in
  Printf.printf "LRU hit rate: %5.1f%%\n2Q  hit rate: %5.1f%%\n" lru_rate twoq_rate;
  Printf.printf "Expected shape: 2Q retains the hot set across scans; LRU does not.\n"

(* ---------------------------------------------------------------- *)
(* E11: RAE vs the restart-only baseline                             *)
(* ---------------------------------------------------------------- *)

let e11_vs_restart_only () =
  section "E11 | RAE vs restart-only recovery (the paper's crash-and-recover baseline)";
  let ids = [ "dx-hash-panic"; "orphan-close-uaf"; "fsync-deadlock" ] in
  Printf.printf "%-14s %-10s %11s %12s %11s %10s\n" "workload" "mode" "recoveries" "mismatches"
    "app EIO" "lost ops";
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 77L) ~count:(sc 1200) in
      let measure mode =
        let bugs =
          Bug_registry.arm ~rng:(Rae_util.Rng.create 9L) (List.filter_map Bug_registry.find ids)
        in
        let _, dev, b =
          fresh_base ~config:{ Base.default_config with Base.commit_interval = 16 } ~bugs ()
        in
        let sp = Spec.make () in
        let mismatches = ref 0 and eio = ref 0 in
        let run exec_one recoveries lost =
          List.iter
            (fun op ->
              let want = Spec.exec sp op in
              let got = exec_one op in
              if not (Op.outcome_equal want got) then incr mismatches;
              match got with Error Errno.EIO -> incr eio | _ -> ())
            ops;
          (recoveries (), !mismatches, !eio, lost ())
        in
        match mode with
        | `Rae ->
            let ctl = Controller.make ~device:dev b in
            run (Controller.exec ctl)
              (fun () -> (Controller.stats ctl).Controller.recoveries)
              (fun () -> 0)
        | `Restart ->
            let ctl = Rae_core.Restart_only.make b in
            run (Rae_core.Restart_only.exec ctl)
              (fun () -> (Rae_core.Restart_only.stats ctl).Rae_core.Restart_only.restarts)
              (fun () -> (Rae_core.Restart_only.stats ctl).Rae_core.Restart_only.lost_window_ops)
      in
      List.iter
        (fun (name, mode) ->
          let recoveries, mismatches, eio, lost = measure mode in
          Printf.printf "%-14s %-10s %11d %12d %11d %10d\n" (W.profile_name profile) name
            recoveries mismatches eio lost)
        [ ("RAE", `Rae); ("restart", `Restart) ])
    [ W.Varmail; W.Fileserver; W.Metadata ];
  Printf.printf
    "\nExpected shape: identical error load, but restart-only recovery loses the\n\
     volatile window and every open descriptor — applications see wrong results\n\
     and EIO storms — while RAE masks everything.  This is the availability gap\n\
     the shadow filesystem exists to close.\n"

(* ---------------------------------------------------------------- *)
(* E-obs: observability — instrumentation cost and trace validity    *)
(* ---------------------------------------------------------------- *)

let e_obs () =
  section "E-obs | Observability: instrumentation overhead and trace well-formedness";
  subsection "E-obs/a | common-path throughput (default / registered / traced), recorder price";
  (* Machine speed drifts over seconds, which would bias back-to-back
     [time_runs] calls; instead the configurations are interleaved
     ([time_interleaved]) so drift hits all of them equally. *)
  let ops = W.ops W.Varmail (Rae_util.Rng.create 11L) ~count:(sc 16_000) in
  let n = float_of_int (List.length ops) in
  (* The default controller: its own flight recorder, nothing else. *)
  let run_default () =
    let _, dev, b = fresh_base () in
    let ctl = Controller.make ~device:dev b in
    run_ops Controller.exec ctl ops
  in
  (* Metrics registered (pull-based, sampled once at the end), and a
     tracer fed from the ring, disabled or enabled. *)
  let run_cfg ~traced () =
    let _, dev, b = fresh_base () in
    let tracer = Rae_obs.Tracer.create () in
    if traced then Rae_obs.Tracer.enable tracer;
    let ctl = Controller.make ~tracer ~device:dev b in
    let reg = Rae_obs.Metrics.create () in
    Controller.register_obs reg ctl;
    run_ops Controller.exec ctl ops;
    ignore (Rae_obs.Metrics.snapshot reg)
  in
  (* The recorder is always on, so there is no arm without it: price what
     it adds to every op instead — the controller's two clock reads
     around the op and one ring write (which reads the ring's clock, the
     controller's) — in a loop of its own. *)
  let iters = sc 1_000_000 in
  let run_recorder () =
    let ev = Rae_obs.Events.create () in
    let now () = Int64.to_int (Rae_obs.Clock.now_ns ()) in
    Rae_obs.Events.set_clock ev now;
    for _ = 1 to iters do
      let t0 = now () in
      let lat_ns = now () - t0 in
      Rae_obs.Events.record_op ev ~kind:"create" ~errno:"" ~lat_ns ~corr:0 ~session:0
    done
  in
  let m =
    time_interleaved ~reps:(reps 5)
      [| run_default; run_cfg ~traced:false; run_cfg ~traced:true; run_recorder |]
  in
  let t_def = m.(0) and t_reg = m.(1) and t_trace = m.(2) in
  let pct t = (t -. t_def) /. t_def *. 100. in
  let rec_ns = m.(3) /. float_of_int iters *. 1e9 and op_ns = t_def /. n *. 1e9 in
  let rec_pct = rec_ns /. op_ns *. 100. in
  Printf.printf "%-28s %12.0f ops/s\n" "default (recorder on)" (n /. t_def);
  Printf.printf "%-28s %12.0f ops/s  (%+.1f%%)\n" "registry + disabled tracer" (n /. t_reg)
    (pct t_reg);
  Printf.printf "%-28s %12.0f ops/s  (%+.1f%%)\n" "tracing enabled" (n /. t_trace) (pct t_trace);
  Printf.printf "%-28s %12.1f ns/op  (%.1f%% of the default arm's %.0f ns/op)\n" "recorder price"
    rec_ns rec_pct op_ns;
  json_note ~sec:"E-obs" ~name:"default" ~unit:"ops_per_s" (n /. t_def);
  json_note ~sec:"E-obs" ~name:"registered" ~unit:"ops_per_s" (n /. t_reg);
  json_note ~sec:"E-obs" ~name:"traced" ~unit:"ops_per_s" (n /. t_trace);
  json_note ~sec:"E-obs" ~name:"registered-overhead" ~unit:"pct" (pct t_reg);
  json_note ~sec:"E-obs" ~name:"traced-overhead" ~unit:"pct" (pct t_trace);
  json_note ~sec:"E-obs" ~name:"recorder-ns-per-op" ~unit:"ns" rec_ns;
  json_note ~sec:"E-obs" ~name:"recorder-overhead" ~unit:"pct" rec_pct;
  (* The recorder is always on: enforce its floor on full runs (quick
     runs take one unpaired sample per arm, far too noisy for a floor). *)
  if (not !quick) && rec_pct > 10. then begin
    Printf.eprintf "E-obs: flight recorder price %.1f%% of an op exceeds the 10%% floor\n" rec_pct;
    exit 1
  end;
  subsection "E-obs/b | recovery trace + black box: emit, validate, check coverage";
  let bugs =
    Bug_registry.arm
      [
        {
          Bug_registry.id = "bench-panic";
          determinism = Bug_registry.Deterministic;
          trigger = Bug_registry.Path_component "trigger";
          consequence = Bug_registry.Panic;
          modeled_after = "bench";
        };
      ]
  in
  let disk = mk_disk () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:1024 ()));
  let b = ok (Base.mount ~bugs dev) in
  let clock () = Int64.add (Rae_util.Vclock.now (Disk.clock disk)) (Rae_obs.Clock.now_ns ()) in
  let tracer = Rae_obs.Tracer.create ~clock () in
  Rae_obs.Tracer.enable tracer;
  let events = Rae_obs.Events.create ~capacity:1024 () in
  let ctl =
    Controller.make ~tracer ~events ~bundle_dir:"bench-bundles" ~run_id:"bench-e-obs" ~device:dev
      b
  in
  let reg = Rae_obs.Metrics.create () in
  Controller.register_obs reg ctl;
  run_ops Controller.exec ctl (W.ops W.Metadata (Rae_util.Rng.create 3L) ~count:(sc 400));
  ignore (Controller.exec ctl (Op.Create (p "/trigger", 0o644)));
  (* The recovery must have left a validating black-box bundle behind. *)
  (match Controller.bundles ctl with
  | [] ->
      prerr_endline "E-obs: recovery emitted no black-box bundle";
      exit 1
  | path :: _ -> (
      match Rae_obs.Blackbox.check_file path with
      | Ok summary ->
          Printf.printf "black box: %s validates (%d events, health %s)\n"
            (Filename.basename path) summary.Rae_obs.Blackbox.s_events
            summary.Rae_obs.Blackbox.s_health;
          json_note ~sec:"E-obs" ~name:"bundle-events" ~unit:"count"
            (float_of_int summary.Rae_obs.Blackbox.s_events)
      | Error violations ->
          Printf.eprintf "E-obs: bundle %s is invalid:\n" path;
          List.iter (fun v -> Printf.eprintf "  - %s\n" v) violations;
          exit 1));
  json_metrics := Some (Rae_obs.Metrics.json reg);
  let trace = Rae_obs.Tracer.to_chrome tracer in
  (match Rae_obs.Tracer.validate_chrome trace with
  | Ok nev ->
      Printf.printf "trace: %d events, balanced and monotone\n" nev;
      json_note ~sec:"E-obs" ~name:"trace-events" ~unit:"count" (float_of_int nev)
  | Error msg ->
      Printf.eprintf "E-obs: malformed trace: %s\n" msg;
      exit 1);
  (* The spans are the ring's: the one event stream the tracer is fed from. *)
  let begun = Rae_obs.Events.tail events in
  let has_span name =
    List.exists
      (fun e -> e.Rae_obs.Events.body = Rae_obs.Events.Span_begin { name })
      begun
  in
  (* The in-flight op is a create, so delegated-sync legitimately never
     runs; this is a default-policy (cold) recovery, so neither does the
     checkpoint-seeded [seed] phase. *)
  let expected =
    "recovery"
    :: List.filter (fun nm -> nm <> "delegated-sync" && nm <> "seed") Controller.phase_names
  in
  let missing = List.filter (fun nm -> not (has_span nm)) expected in
  if missing <> [] then begin
    Printf.eprintf "E-obs: missing recovery spans: %s\n" (String.concat ", " missing);
    exit 1
  end;
  (match Controller.last_recovery ctl with
  | Some r when r.Report.r_phases <> [] -> ()
  | _ ->
      prerr_endline "E-obs: recovery report carries no phase timings";
      exit 1);
  Printf.printf "all %d expected recovery spans present; report carries %d phase timings\n"
    (List.length expected)
    (match Controller.last_recovery ctl with
    | Some r -> List.length r.Report.r_phases
    | None -> 0)

(* ---------------------------------------------------------------- *)
(* E-srv: the serving layer                                          *)
(* ---------------------------------------------------------------- *)

module Srv = Rae_srv.Server
module Loopback = Rae_srv.Loopback
module SrvClient = Rae_srv.Srv_client
module SWire = Rae_srv.Wire

(* A raw pipelined client over one loopback endpoint.  Srv_client is
   synchronous (one outstanding request); to give the scheduler real
   cross-session batches to build, the throughput bench speaks the wire
   protocol directly with a window of in-flight requests per session. *)
type pipelined = {
  plc_ep : Loopback.endpoint;
  plc_send : string -> unit;
  mutable plc_rx : string;
  mutable plc_next_req : int;
  mutable plc_inflight : int;
  mutable plc_remaining : int;
  mutable plc_completed : int;
  mutable plc_busy : int;
  mutable plc_vfd : int;
}

let pl_drain st =
  let fresh = Loopback.recv st.plc_ep in
  st.plc_rx <- (if st.plc_rx = "" then fresh else st.plc_rx ^ fresh);
  let buf = Bytes.unsafe_of_string st.plc_rx in
  let len = Bytes.length buf in
  let pos = ref 0 in
  let frames = ref [] in
  let continue = ref true in
  while !continue do
    match SWire.decode buf ~pos:!pos ~len:(len - !pos) with
    | SWire.Frame (f, consumed) ->
        frames := f :: !frames;
        pos := !pos + consumed
    | SWire.Need_more -> continue := false
    | SWire.Fail e -> failwith (Format.asprintf "e-srv: wire failure: %a" SWire.pp_error e)
  done;
  st.plc_rx <- String.sub st.plc_rx !pos (len - !pos);
  List.rev !frames

let pl_req st =
  let r = st.plc_next_req in
  st.plc_next_req <- r + 1;
  r

let pl_await hub st accept =
  let result = ref None in
  let guard = ref 0 in
  while !result = None && !guard < 100_000 do
    incr guard;
    (match List.filter_map accept (pl_drain st) with
    | v :: _ -> result := Some v
    | [] -> ignore (Loopback.pump hub))
  done;
  match !result with Some v -> v | None -> failwith "e-srv: no reply"

let pl_window = 8 (* matches the per-session rate quota *)
let pl_data = String.make 256 's'

(* Attach, create, open and prime this session's private file. *)
let pl_setup hub i =
  let ep = Loopback.connect hub in
  let io = Loopback.io ep in
  let st =
    {
      plc_ep = ep;
      plc_send = io.SrvClient.io_send;
      plc_rx = "";
      plc_next_req = 1;
      plc_inflight = 0;
      plc_remaining = 0;
      plc_completed = 0;
      plc_busy = 0;
      plc_vfd = -1;
    }
  in
  st.plc_send (SWire.encode (SWire.Hello { version = SWire.protocol_version }));
  pl_await hub st (function SWire.Hello_ok _ -> Some () | _ -> None);
  let path = p (Printf.sprintf "/srv%d" i) in
  st.plc_send (SWire.encode (SWire.Op_req { req = pl_req st; corr = 0; op = Op.Create (path, 0o644) }));
  pl_await hub st (function SWire.Op_reply _ -> Some () | _ -> None);
  st.plc_send
    (SWire.encode (SWire.Op_req { req = pl_req st; corr = 0; op = Op.Open (path, Rae_vfs.Types.flags_rw) }));
  st.plc_vfd <-
    pl_await hub st (function
      | SWire.Op_reply { outcome = Ok (Op.Fd fd); _ } -> Some fd
      | SWire.Op_reply _ -> failwith "e-srv: setup open failed"
      | _ -> None);
  st.plc_send (SWire.encode (SWire.Op_req { req = pl_req st; corr = 0; op = Op.Pwrite (st.plc_vfd, 0, pl_data) }));
  pl_await hub st (function SWire.Op_reply _ -> Some () | _ -> None);
  st

let pl_issue st =
  while st.plc_inflight < pl_window && st.plc_remaining > 0 do
    let op =
      if st.plc_remaining land 1 = 0 then Op.Fstat st.plc_vfd
      else Op.Pread (st.plc_vfd, st.plc_remaining * 256 mod 65536, 256)
    in
    st.plc_send (SWire.encode (SWire.Op_req { req = pl_req st; corr = 0; op }));
    st.plc_remaining <- st.plc_remaining - 1;
    st.plc_inflight <- st.plc_inflight + 1
  done

let pl_settle st =
  List.iter
    (function
      | SWire.Op_reply _ ->
          st.plc_inflight <- st.plc_inflight - 1;
          st.plc_completed <- st.plc_completed + 1
      | SWire.Busy _ ->
          st.plc_inflight <- st.plc_inflight - 1;
          st.plc_remaining <- st.plc_remaining + 1;
          st.plc_busy <- st.plc_busy + 1
      | _ -> ())
    (pl_drain st)

(* One throughput configuration: [sessions] pipelined clients, [total]
   operations split evenly, over a loopback hub charging 200us of simulated
   dispatch latency per turn that does work — the per-wakeup cost a real
   event loop pays regardless of batch size, i.e. exactly what batching
   amortizes.  Reported throughput is against combined wall + simulated
   time (the E3b convention). *)
let e_srv_run ~sessions ~batching ~total =
  let _, dev, base = fresh_base () in
  let ctl = Controller.make ~device:dev base in
  let config =
    { Srv.default_config with Srv.batch_max = (if batching then Srv.default_config.Srv.batch_max else 1) }
  in
  let server = Srv.create ~config ctl in
  let clock = Rae_util.Vclock.create () in
  let hub = Loopback.create ~turn_latency_ns:200_000L ~clock server in
  let sts = Array.init sessions (fun i -> pl_setup hub i) in
  let per = max 1 (total / sessions) in
  Array.iter (fun st -> st.plc_remaining <- per) sts;
  let finished () =
    Array.for_all (fun st -> st.plc_remaining = 0 && st.plc_inflight = 0) sts
  in
  let wall0 = now_s () in
  let sim0 = Rae_util.Vclock.now clock in
  let guard = ref 0 in
  while (not (finished ())) && !guard < 10_000_000 do
    incr guard;
    Array.iter pl_issue sts;
    ignore (Loopback.pump hub);
    Array.iter pl_settle sts
  done;
  if not (finished ()) then failwith "e-srv: throughput run stalled";
  let wall = now_s () -. wall0 in
  let sim = Int64.to_float (Int64.sub (Rae_util.Vclock.now clock) sim0) /. 1e9 in
  let n = Array.fold_left (fun acc st -> acc + st.plc_completed) 0 sts in
  let busy = Array.fold_left (fun acc st -> acc + st.plc_busy) 0 sts in
  (float_of_int n /. (wall +. sim), busy)

let median_of l =
  let sorted = List.sort compare l in
  List.nth sorted (List.length sorted / 2)

let e_srv_throughput () =
  subsection
    "E-srv/a | throughput vs client count (loopback, 200us/turn dispatch latency, window 8)";
  let total = sc 4096 in
  let rounds = reps 3 in
  let measure ~sessions ~batching =
    median_of (List.init rounds (fun _ -> fst (e_srv_run ~sessions ~batching ~total)))
  in
  Printf.printf "%-10s %16s %16s %10s\n" "sessions" "batched (op/s)" "unbatched (op/s)"
    "batch adv.";
  let batched1 = ref 0. and batched16 = ref 0. in
  List.iter
    (fun sessions ->
      let b = measure ~sessions ~batching:true in
      let u = measure ~sessions ~batching:false in
      if sessions = 1 then batched1 := b;
      if sessions = 16 then batched16 := b;
      json_note ~sec:"E-srv" ~name:(Printf.sprintf "c%d/batched" sessions) ~unit:"ops_per_s" b;
      json_note ~sec:"E-srv" ~name:(Printf.sprintf "c%d/unbatched" sessions) ~unit:"ops_per_s" u;
      Printf.printf "%-10d %16.0f %16.0f %9.1fx\n" sessions b u (b /. u))
    [ 1; 4; 16; 64 ];
  let speedup = !batched16 /. !batched1 in
  json_note ~sec:"E-srv" ~name:"speedup-16v1-batched" ~unit:"x" speedup;
  Printf.printf
    "\n16-session vs single-session throughput (batched): %.1fx\n\
     Expected shape: batching amortizes the per-turn dispatch cost across up\n\
     to batch_max requests, so throughput scales with sessions until the\n\
     batch cap (64 = 8 sessions x window 8) and then plateaus; unbatched\n\
     dispatch pays the full turn cost per op at every session count.\n"
    speedup;
  if speedup < 2.0 then begin
    Printf.eprintf "E-srv: 16-session speedup %.2fx below the 2x floor\n" speedup;
    exit 1
  end

let e_srv_recovery () =
  subsection "E-srv/b | mid-run injected BUG: recovery transparency across sessions";
  let bugs =
    Bug_registry.arm
      [
        {
          Bug_registry.id = "srv-panic";
          determinism = Bug_registry.Deterministic;
          trigger = Bug_registry.Path_component "trigger";
          consequence = Bug_registry.Panic;
          modeled_after = "bench";
        };
      ]
  in
  let _, dev, base = fresh_base ~bugs () in
  (* Checkpointing on, as rfsd runs it: the mid-serving recovery replays
     only the suffix past the last fold, shrinking the Busy window. *)
  let ctl = Controller.make ~policy:ckpt_policy ~device:dev base in
  let server = Srv.create ctl in
  let hub = Loopback.create server in
  let clients =
    Array.init 4 (fun i ->
        match SrvClient.connect ~dial:(Loopback.dial hub) () with
        | Ok c -> c
        | Error msg -> failwith (Printf.sprintf "e-srv: client %d attach: %s" i msg))
  in
  let rounds = sc 64 in
  let errors = ref 0 in
  let total = ref 0 in
  let check r =
    incr total;
    match r with Ok _ -> () | Error _ -> incr errors
  in
  for k = 0 to rounds - 1 do
    Array.iteri
      (fun i c ->
        (* the BUG fires mid-run, from one session, while the others are
           mid-stream: the panic must be invisible to all of them *)
        if i = 0 && k = rounds / 2 then check (SrvClient.create c (p "/trigger") ~mode:0o644);
        let path = p (Printf.sprintf "/f%d_%d" i k) in
        check (SrvClient.create c path ~mode:0o644);
        match SrvClient.openf c path Rae_vfs.Types.flags_rw with
        | Ok fd ->
            incr total;
            check (SrvClient.pwrite c fd ~off:0 (String.make 128 'y'));
            check (SrvClient.pread c fd ~off:0 ~len:64);
            check (SrvClient.fstat c fd);
            check (SrvClient.close c fd)
        | Error _ ->
            incr total;
            incr errors)
      clients
  done;
  let recoveries = (Controller.stats ctl).Controller.recoveries in
  let notices = Array.map SrvClient.recovered_seen clients in
  Printf.printf "%d ops across 4 sessions: %d client-visible errors, %d recover%s\n" !total
    !errors recoveries
    (if recoveries = 1 then "y" else "ies");
  Array.iteri
    (fun i n -> Printf.printf "client %d observed %d Note_recovered push%s\n" i n
        (if n = 1 then "" else "es"))
    notices;
  json_note ~sec:"E-srv" ~name:"bug-ops" ~unit:"count" (float_of_int !total);
  json_note ~sec:"E-srv" ~name:"bug-client-errors" ~unit:"count" (float_of_int !errors);
  json_note ~sec:"E-srv" ~name:"bug-recoveries" ~unit:"count" (float_of_int recoveries);
  json_note ~sec:"E-srv" ~name:"bug-min-notices" ~unit:"count"
    (float_of_int (Array.fold_left min max_int notices));
  if !errors > 0 || recoveries < 1 || Array.exists (fun n -> n < 1) notices then begin
    Printf.eprintf
      "E-srv: recovery transparency violated (%d errors, %d recoveries, notices %s)\n" !errors
      recoveries
      (String.concat "," (Array.to_list (Array.map string_of_int notices)));
    exit 1
  end

(* E-srv/c: one session's pread replies of 0.5-64 KiB through Server and
   Drive over Loopback.  Per reply: the wall time of the server's turn
   (poll, feed, dispatch, encode, drain, the loopback's copy) and the
   words that turn allocates straight into the major heap, which every
   fresh copy of a reply over 2 KiB is.  The client's side (encoding the
   request, taking the reply out of the loopback) is outside both. *)
let e_srv_reply () =
  subsection "E-srv/c | read-reply path: pread replies through Server + Drive over Loopback";
  let _, dev, base = fresh_base () in
  let ctl = Controller.make ~device:dev base in
  let hub = Loopback.create (Srv.create ctl) in
  let ep = Loopback.connect hub in
  let send = (Loopback.io ep).SrvClient.io_send in
  let await () =
    let rec go tries =
      ignore (Loopback.pump hub);
      match SWire.decode_string (Loopback.recv ep) with
      | SWire.Frame ((SWire.Hello_ok _ | SWire.Op_reply _) as f, _) -> f
      | _ when tries > 0 -> go (tries - 1)
      | _ -> failwith "e-srv/c: no reply"
    in
    go 10
  in
  let call op =
    send (SWire.encode (SWire.Op_req { req = 1; corr = 0; op }));
    match await () with SWire.Op_reply { outcome; _ } -> outcome | _ -> failwith "e-srv/c: reply"
  in
  send (SWire.encode (SWire.Hello { version = SWire.protocol_version }));
  ignore (await ());
  let path = p "/reply" in
  ignore (call (Op.Create (path, 0o644)));
  let fd =
    match call (Op.Open (path, Rae_vfs.Types.flags_rw)) with
    | Ok (Op.Fd fd) -> fd
    | _ -> failwith "e-srv/c: open"
  in
  let data = String.init 65536 (fun i -> Char.chr (i * 11 land 0xff)) in
  ignore (call (Op.Pwrite (fd, 0, data)));
  (* Replies per batch: a commit before each batch empties the op log, so
     its array never outgrows the minor heap within one.  (Reads alone
     leave nothing to commit.) *)
  let batch = 32 in
  let batches = if !quick then 2 else 20 in
  let words () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let now () = Int64.to_float (Rae_obs.Clock.now_ns ()) in
  let measure len =
    let req = SWire.encode (SWire.Op_req { req = 1; corr = 0; op = Op.Pread (fd, 0, len) }) in
    let reply () =
      match SWire.decode_string (Loopback.recv ep) with
      | SWire.Frame (SWire.Op_reply { outcome = Ok (Op.Data d); _ }, _)
        when String.length d = len && d = String.sub data 0 len -> ()
      | _ -> failwith (Printf.sprintf "e-srv/c: bad %d-byte reply" len)
    in
    (* Warm: the connection's buffer and the loopback's grow to size. *)
    send req;
    ignore (Loopback.pump hub);
    reply ();
    let w = ref 0. and us = ref [] in
    for _ = 1 to batches do
      ignore (Controller.chmod ctl path ~mode:0o644);
      ignore (Controller.sync ctl);
      let t = ref 0. in
      for _ = 1 to batch do
        send req;
        let w0 = words () and t0 = now () in
        ignore (Loopback.pump hub);
        let t1 = now () and w1 = words () in
        t := !t +. (t1 -. t0);
        w := !w +. (w1 -. w0);
        reply ()
      done;
      us := (!t /. float_of_int batch /. 1e3) :: !us
    done;
    (!w /. float_of_int (batch * batches), !us)
  in
  Printf.printf "  %-10s %12s %24s %14s\n" "reply" "us/reply" "(quartiles)" "direct words";
  let at_16k = ref 0. in
  List.iter
    (fun len ->
      let direct, us = measure len in
      let a = Array.of_list (List.sort compare us) in
      let q f = a.(min (Array.length a - 1) (int_of_float (f *. float_of_int (Array.length a)))) in
      let name = Printf.sprintf "%d" len in
      Printf.printf "  %-10s %12.2f %13.2f-%-10.2f %14.1f\n" (name ^ " B") (q 0.5) (q 0.25) (q 0.75)
        direct;
      json_note ~sec:"E-srv" ~name:("reply/" ^ name ^ "/us") ~unit:"us_per_reply" (q 0.5);
      json_note ~sec:"E-srv" ~name:("reply/" ^ name ^ "/direct-major-words") ~unit:"words" direct;
      if len = 16384 then at_16k := direct)
    [ 512; 4096; 16384; 65536 ];
  (* Floor: the count repeats exactly.  This code allocates one 16 KiB
     string per 16 KiB reply (2050 words, the read's result); the ceiling
     is that plus 10 %, below a second copy.  Before the in-place encoder
     and `Server.drain` it was 6152: three copies, the read's buffer and
     its string, and the server's output string. *)
  let ceiling = 2255. in
  Printf.printf "  16 KiB reply: %.1f direct major words (ceiling %.0f)\n" !at_16k ceiling;
  if !at_16k > ceiling then begin
    Printf.eprintf "E-srv: %.1f direct major words per 16 KiB reply > %.0f\n" !at_16k ceiling;
    exit 1
  end

let e_srv () =
  section "E-srv | serving layer: multi-client throughput, batching, recovery transparency";
  e_srv_throughput ();
  e_srv_recovery ();
  e_srv_reply ()

(* The lint engine rides the inner loop of CI (`dune build @lint` runs on
   every `dune runtest`), so its cost is a budget like any other: a full
   interprocedural scan of lib/ must stay under 10 s of wall time or the
   alias stops being something developers keep enabled.  The scan reads
   the .cmt files of the libraries this binary already links, so they are
   guaranteed to be built. *)
let e_lint () =
  section "E-lint | rae_lint full-repo scan: interprocedural effects + typestate";
  (* cwd is _build/default/bench under the bench-smoke alias, the repo
     root under `dune exec bench/main.exe`. *)
  let candidates = [ "../lib"; "_build/default/lib" ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> Printf.printf "  no built lib/ tree next to the benchmark; skipping\n"
  | Some dir -> (
      let t0 = now_s () in
      match Rae_lint.Engine.run ~dirs:[ dir ] () with
      | Error msg ->
          Printf.eprintf "E-lint: %s\n" msg;
          exit 1
      | Ok r ->
          let wall = now_s () -. t0 in
          let s = r.Rae_lint.Engine.stats in
          Printf.printf "  %d units, %d rules, %d findings in %.3fs (floor: < 10 s wall)\n"
            s.Rae_lint.Engine.units_loaded s.Rae_lint.Engine.rules_run
            s.Rae_lint.Engine.findings wall;
          json_note ~sec:"E-lint" ~name:"wall" ~unit:"s" wall;
          json_note ~sec:"E-lint" ~name:"units" ~unit:"count"
            (float_of_int s.Rae_lint.Engine.units_loaded);
          json_note ~sec:"E-lint" ~name:"findings" ~unit:"count"
            (float_of_int s.Rae_lint.Engine.findings);
          if wall >= 10.0 then begin
            Printf.eprintf "E-lint: full-repo scan took %.2fs, over the 10 s floor\n" wall;
            exit 1
          end)

(* E-crash: the B3-style crash-consistency sweep.  The engine enumerates
   every persistence boundary (and bounded-depth reordered subsets) of
   bounded, targeted and crash-mid-recovery workloads (through the
   commit that persists the hand-off; the [recovery-chunk] arm's 16-block
   journal makes the hand-off commit in chunks), and the oracle
   must judge every image consistent or repaired — zero diverging.  The
   seeded fixture (a device that ignores flush barriers) must diverge and
   minimize to a tiny reproducer, or the oracle has gone blind.  Floors
   enforced on the full run: >= 500 crash points, 0 diverging, fixture
   caught and minimized to <= 3 ops. *)
let e_crash () =
  section "E-crash | crash-consistency sweep: every crash image recovers to a legal state";
  let module CE = Rae_crash.Engine in
  let floor_violations = ref [] in
  let t0 = now_s () in
  let stats = ref CE.empty_stats in
  let sweep name s =
    Printf.printf "  %-14s %s\n" name (Format.asprintf "%a" CE.pp_stats s);
    List.iter
      (fun d ->
        Printf.printf "    diverging %s at %s: %s\n" d.CE.d_label d.CE.d_key d.CE.d_reason)
      (List.rev s.CE.s_diverging);
    stats := CE.merge !stats s
  in
  let cfg =
    {
      CE.default_config with
      CE.prefix_stride = (if !quick then 2 else 1);
      samples_per_epoch = (if !quick then 6 else 12);
    }
  in
  sweep "bounded" (CE.sweep_bounded ~cfg ~max_workloads:(sc 48) ());
  sweep "targeted"
    (CE.sweep_targeted ~cfg ~count:(sc 48)
       ~seeds:(if !quick then [ 1L ] else [ 1L; 2L; 3L ])
       ());
  sweep "recovery-cold" (CE.sweep_recovery ~cfg ~count:(sc 24) ~ckpt:false ());
  sweep "recovery-ckpt" (CE.sweep_recovery ~cfg ~count:(sc 24) ~ckpt:true ());
  sweep "recovery-chunk" (CE.sweep_recovery ~cfg ~count:(sc 24) ~journal_len:16 ~ckpt:false ());
  let s = !stats in
  let wall = now_s () -. t0 in
  let diverging = List.length s.CE.s_diverging in
  Printf.printf "  %-14s %s  (%.2fs wall)\n" "total" (Format.asprintf "%a" CE.pp_stats s) wall;
  json_note ~sec:"E-crash" ~name:"points" ~unit:"count" (float_of_int s.CE.s_points);
  json_note ~sec:"E-crash" ~name:"workloads" ~unit:"count" (float_of_int s.CE.s_workloads);
  json_note ~sec:"E-crash" ~name:"consistent" ~unit:"count" (float_of_int s.CE.s_consistent);
  json_note ~sec:"E-crash" ~name:"repaired" ~unit:"count" (float_of_int s.CE.s_repaired);
  json_note ~sec:"E-crash" ~name:"diverging" ~unit:"count" (float_of_int diverging);
  json_note ~sec:"E-crash" ~name:"wall" ~unit:"s" wall;
  (* The seeded divergence: the oracle must catch a barrier-ignoring
     device and shrink the workload to a tiny reproducer. *)
  let fixture = [ Rae_vfs.Op.Create (Rae_vfs.Path.parse_exn "/a", 0o644); Rae_vfs.Op.Sync ] in
  (match CE.first_divergence ~cfg ~barriers:false fixture with
  | None -> floor_violations := "seeded broken-barriers fixture not detected" :: !floor_violations
  | Some d ->
      Printf.printf "  fixture        caught at %s (%s)\n" d.CE.d_key d.CE.d_reason;
      (match CE.minimize ~cfg ~barriers:false fixture with
      | Some min_ops when List.length min_ops <= 3 ->
          Printf.printf "  fixture        minimized to %d op(s): %s\n" (List.length min_ops)
            (CE.render_ops min_ops);
          json_note ~sec:"E-crash" ~name:"fixture-reproducer" ~unit:"ops"
            (float_of_int (List.length min_ops))
      | Some min_ops ->
          floor_violations :=
            Printf.sprintf "fixture reproducer has %d ops, over the 3-op floor"
              (List.length min_ops)
            :: !floor_violations
      | None -> floor_violations := "fixture diverged but would not minimize" :: !floor_violations));
  if diverging > 0 then
    floor_violations := Printf.sprintf "%d diverging crash points" diverging :: !floor_violations;
  if (not !quick) && s.CE.s_points < 500 then
    floor_violations :=
      Printf.sprintf "only %d crash points enumerated, under the 500 floor" s.CE.s_points
      :: !floor_violations;
  if !floor_violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "E-crash: %s\n" v) (List.rev !floor_violations);
    exit 1
  end;
  print_string
    "\nExpected shape: every enumerated crash image — prefix and reordered-subset\n\
     points, including those inside the recovery pipeline's own write stream —\n\
     mounts, replays and fscks clean, and matches a legal durable boundary\n\
     (diverging = 0).  Only the seeded broken-barriers fixture diverges, and it\n\
     shrinks to a reproducer of at most 3 ops.\n"

(* ---------------------------------------------------------------- *)
(* E-avail: the availability oracle over fixed seeds                  *)
(* ---------------------------------------------------------------- *)

(* The oracle behind test_core's "RAE == spec under armed bugs" on seeds
   1..20,000 (a 250-seed sample under --quick): every outcome equals the
   spec's, and fsck finds the image clean after a final sync.  Seed [s]
   replays a trace of 50 + s mod 201 ops, the property's 50..250 range.
   Floor: 0 failures. *)
let e_avail () =
  section "E-avail | availability oracle (spec + fsck after sync) over fixed seeds";
  let seeds = if !quick then 250 else 20_000 in
  let t0 = now_s () in
  let failures = ref [] in
  for seed = 1 to seeds do
    let count = 50 + (seed mod 201) in
    match Rae_core.Differential.availability ~seed:(Int64.of_int seed) ~count with
    | Ok () -> ()
    | Error msg -> failures := Printf.sprintf "seed %d (%d ops): %s" seed count msg :: !failures
  done;
  let wall = now_s () -. t0 in
  let nfail = List.length !failures in
  Printf.printf "  %d seeds, %d failures, %.1fs wall (%.2f ms per seed)\n" seeds nfail wall
    (wall *. 1000. /. float_of_int seeds);
  json_note ~sec:"E-avail" ~name:"seeds" ~unit:"count" (float_of_int seeds);
  json_note ~sec:"E-avail" ~name:"failures" ~unit:"count" (float_of_int nfail);
  json_note ~sec:"E-avail" ~name:"wall" ~unit:"s" wall;
  if nfail > 0 then begin
    List.iter (fun f -> Printf.eprintf "E-avail: %s\n" f) (List.rev !failures);
    exit 1
  end;
  print_string
    "\nExpected shape: 0 failures.  A failure prints its seed; the same seed\n\
     through Differential.availability replays it.\n"

(* ---------------------------------------------------------------- *)
(* E-par: the crash sweep on OCaml 5 domains                          *)
(* ---------------------------------------------------------------- *)

(* E-par floors: sweep verdicts equal across domain counts, full crash
   sweep 0 diverging over > 2000 workloads.  Both are correctness
   floors, enforced on every run. *)
let e_par () =
  section "E-par | domain parallelism: the crash sweep";
  let module CE = Rae_crash.Engine in
  let domains = Domain.recommended_domain_count () in
  Printf.printf "recommended_domain_count = %d (the parallel arms' width)\n" domains;
  json_note ~sec:"E-par" ~name:"recommended-domains" ~unit:"count" (float_of_int domains);
  let floor_violations = ref [] in
  let hard_floor msg ok = if not ok then floor_violations := msg :: !floor_violations in
  (* One minor-heap size for the calling domain, 4M words (32 MiB); past
     it the one-domain sweep gains little more (DESIGN §13).  At the
     runtime default the one-domain arm promotes far more, and the ratio
     would then reward extra minor heaps, not fan-out.  [Gc.set] sizes
     the calling domain only: the domains a [map_array] call spawns start
     at the runtime's initial 256k words (OCaml 5.1), but the parallel
     arm's time does not move with their heaps (DESIGN §13), so one
     setting is enough. *)
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.minor_heap_size = 4 lsl 20 };
  let minor_words = (Gc.get ()).Gc.minor_heap_size in
  Printf.printf "minor heap: %d words\n" minor_words;
  json_note ~sec:"E-par" ~name:"minor-heap-words" ~unit:"words" (float_of_int minor_words);

  subsection
    (Printf.sprintf "E-par-d | crash sweep: 1 vs %d domains, plus the exhaustive space" domains);
  let cfg =
    {
      CE.default_config with
      CE.prefix_stride = (if !quick then 2 else 1);
      samples_per_epoch = (if !quick then 6 else 12);
    }
  in
  let nsample = sc 120 in
  let sweep_stats = Array.make 2 CE.empty_stats in
  let sweep_arm i domains () =
    sweep_stats.(i) <- CE.sweep_bounded ~cfg ~domains ~max_workloads:nsample ()
  in
  let smed = time_interleaved ~reps:(reps 3) [| sweep_arm 0 1; sweep_arm 1 domains |] in
  let fingerprint (s : CE.stats) =
    ( s.CE.s_workloads,
      s.CE.s_points,
      s.CE.s_consistent,
      s.CE.s_repaired,
      List.sort compare
        (List.map (fun d -> (d.CE.d_label, d.CE.d_key, d.CE.d_reason)) s.CE.s_diverging) )
  in
  Printf.printf "  sweep 1 domain  (%3d workloads): %8.2f s\n" nsample smed.(0);
  Printf.printf "  sweep %d domains (%3d workloads): %8.2f s  (%.2fx)\n" domains nsample smed.(1)
    (smed.(0) /. smed.(1));
  json_note ~sec:"E-par" ~name:"sweep-seq" ~unit:"s" smed.(0);
  json_note ~sec:"E-par" ~name:"sweep-par" ~unit:"s" smed.(1);
  hard_floor "parallel sweep verdicts differ from sequential"
    (fingerprint sweep_stats.(0) = fingerprint sweep_stats.(1));
  (* The exhaustive arm: every deduplicated bounded workload.  Skipped
     under --quick (it is the single most expensive measurement in the
     harness); on full runs the 0-diverging floor covers the whole
     space, not a sample. *)
  if !quick then Printf.printf "  exhaustive sweep skipped under --quick\n"
  else begin
    let t0 = now_s () in
    let full = CE.sweep_full ~cfg ~domains () in
    let wall = now_s () -. t0 in
    let diverging = List.length full.CE.s_diverging in
    Printf.printf "  exhaustive  (%d workloads, %d points, %d domains): %.1f s, %d diverging\n"
      full.CE.s_workloads full.CE.s_points domains wall diverging;
    json_note ~sec:"E-par" ~name:"full-sweep-workloads" ~unit:"count"
      (float_of_int full.CE.s_workloads);
    json_note ~sec:"E-par" ~name:"full-sweep-points" ~unit:"count" (float_of_int full.CE.s_points);
    json_note ~sec:"E-par" ~name:"full-sweep-wall" ~unit:"s" wall;
    json_note ~sec:"E-par" ~name:"full-sweep-diverging" ~unit:"count" (float_of_int diverging);
    hard_floor
      (Printf.sprintf "exhaustive sweep: %d diverging crash points" diverging)
      (diverging = 0);
    hard_floor
      (Printf.sprintf "exhaustive sweep covered only %d workloads" full.CE.s_workloads)
      (full.CE.s_workloads > 2000)
  end;
  Gc.set gc0;
  if !floor_violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "E-par: %s\n" v) (List.rev !floor_violations);
    exit 1
  end;
  print_string
    "\nExpected shape: crash verdict sets are equal across domain counts while\n\
     the sweep fans out across domains, and the exhaustive bounded crash\n\
     space still has zero diverging points.  The sweep ratio is wall-clock\n\
     fan-out at one minor-heap size; on one core there is nothing to win.\n"

let () =
  Printf.printf "RAE / Shadow Filesystems — benchmark harness\n";
  Printf.printf "(HotStorage '24 reproduction; see EXPERIMENTS.md for the experiment index)\n";
  let rec parse json sels = function
    | [] -> (json, List.rev sels)
    | "--json" :: path :: rest -> parse (Some path) sels rest
    | [ "--json" ] ->
        prerr_endline "bench: --json requires a path";
        exit 2
    | "--quick" :: rest ->
        quick := true;
        parse json sels rest
    | sel :: rest -> parse json (sel :: sels) rest
  in
  let json_path, sels = parse None [] (List.tl (Array.to_list Sys.argv)) in
  if !quick then Printf.printf "(--quick: scaled-down smoke run; numbers are noise)\n";
  let want name = sels = [] || List.mem name sels in
  if want "e1" then e1_table1 ();
  if want "e2" then e2_fig1 ();
  if want "e3" then begin
    e3_micro ();
    e3_base_vs_shadow ()
  end;
  if want "e4" then e4_record_overhead ();
  if want "e5" then e5_recovery_latency ();
  if want "e-ckpt" then e_ckpt ();
  if want "e-commit" then e_commit ();
  if want "e-kernel" then e_kernel ();
  if want "e-shadow" then e_shadow ();
  if List.mem "e-fold" sels then e_fold ();
  if want "e6" then e6_check_cost ();
  if want "e7" then e7_lookup_depth ();
  if want "e8" then e8_availability ();
  if want "e9" then e9_cross_check ();
  if want "e10" then e10_cache_policy ();
  if want "e11" then e11_vs_restart_only ();
  if want "e-obs" then e_obs ();
  if want "e-srv" then e_srv ();
  if want "e-lint" then e_lint ();
  if want "e-crash" then e_crash ();
  if want "e-avail" then e_avail ();
  if want "e-par" then e_par ();
  Printf.printf "\nAll requested benches complete.\n";
  Option.iter
    (fun path ->
      try write_json path
      with Sys_error msg ->
        Printf.eprintf "bench: cannot write JSON results: %s\n" msg;
        exit 1)
    json_path
