(* Recording phase of the crash-point enumerator: run a bounded workload
   over a crashsim-traced device and capture everything the offline
   enumerator needs — the device-level write/flush stream, the base image
   the stream starts from, and one spec snapshot per journal-commit
   boundary (the legal durable states a crash image may recover to).

   The spec model runs in lockstep with the base, one op ahead of the
   commit hook, so the snapshot taken when a group commit fires already
   includes the op the commit ran inside (base.ml finish_mutation commits
   *after* the mutation). *)

module Disk = Rae_block.Disk
module Device = Rae_block.Device
module Crashsim = Rae_block.Crashsim
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Controller = Rae_core.Controller
module Spec = Rae_specfs.Spec
module Op = Rae_vfs.Op
module Types = Rae_vfs.Types

type boundary = {
  b_index : int;
  b_commit_seq : int64;
  b_op : int;  (* ops covered by this commit (1-origin count) *)
  b_event : int;  (* events recorded when the commit completed *)
  b_spec : Spec.t;
}

type t = {
  events : Crashsim.event array;
  boundaries : boundary array;  (* [0] is the freshly formatted image *)
  base_image : bytes array;
  nblocks : int;
  ninodes : int;
  commit_interval : int;
  ops : Op.t array;
  hazards : int list array;
      (* per op: inos whose on-medium bytes the op may tear once the op is
         no longer covered by a fully flushed commit — content writes,
         plus frees that allow block reuse *)
  barriers : bool;  (* false: pretend the device ignored flush barriers *)
  recovery_from : int option;  (* first event of the recovery write suffix *)
  seeded_recovery : bool;
  handoff_deferred : bool;  (* the recovery left its hand-off to a later commit *)
}

let block_size = Rae_format.Layout.block_size

let hazard_inos spec op =
  let stat_ino p =
    match Spec.stat spec p with Ok st -> [ st.Types.st_ino ] | Error _ -> []
  in
  let fstat_ino fd =
    match Spec.fstat spec fd with Ok st -> [ st.Types.st_ino ] | Error _ -> []
  in
  match op with
  | Op.Pwrite (fd, _, _) -> fstat_ino fd
  | Op.Truncate (p, _) -> stat_ino p
  | Op.Open (p, flags) when flags.Types.trunc -> stat_ino p
  | Op.Unlink p -> stat_ino p
  | Op.Rename (_, dst) -> stat_ino dst
  | Op.Rmdir p -> stat_ino p
  | _ -> []

(* Inos that may be torn in an image whose durable bound is boundary
   [lo]: every hazard recorded by an op past lo's covered prefix. *)
let dirty_after t lo =
  let acc = Hashtbl.create 8 in
  for i = lo.b_op to Array.length t.hazards - 1 do
    List.iter (fun ino -> Hashtbl.replace acc ino ()) t.hazards.(i)
  done;
  fun ino -> Hashtbl.mem acc ino

let fresh_run ?journal_len ~nblocks ~ninodes () =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size ~nblocks () in
  let raw = Device.of_disk disk in
  (match Base.mkfs raw ~ninodes ?journal_len () with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Rae_crash.Recording: mkfs failed: " ^ msg));
  let base_image = Disk.snapshot disk in
  let sim, dev = Crashsim.create ~trace:true raw in
  (base_image, sim, dev)

let record ?(nblocks = 512) ?(ninodes = 64) ?(commit_interval = 2) ?(barriers = true) ops =
  let base_image, sim, dev = fresh_run ~nblocks ~ninodes () in
  let b =
    match Base.mount ~config:{ Base.default_config with Base.commit_interval } dev with
    | Ok b -> b
    | Error msg -> invalid_arg ("Rae_crash.Recording: mount failed: " ^ msg)
  in
  let spec = Spec.make () in
  let ops = Array.of_list ops in
  let hazards = Array.make (max 1 (Array.length ops)) [] in
  let boundaries = ref [] in
  let covered = ref 0 in
  let push ~commit_seq =
    boundaries :=
      {
        b_index = List.length !boundaries;
        b_commit_seq = commit_seq;
        b_op = !covered;
        b_event = Array.length (Crashsim.events sim);
        b_spec = Spec.copy spec;
      }
      :: !boundaries
  in
  push ~commit_seq:0L;
  Base.on_commit b (fun ~commit_seq -> push ~commit_seq);
  Array.iteri
    (fun i op ->
      hazards.(i) <- hazard_inos spec op;
      ignore (Spec.exec spec op);
      covered := i + 1;
      ignore (Base.exec b op))
    ops;
  Base.commit b;
  {
    events = Crashsim.events sim;
    boundaries = Array.of_list (List.rev !boundaries);
    base_image;
    nblocks;
    ninodes;
    commit_interval;
    ops;
    hazards;
    barriers;
    recovery_from = None;
    seeded_recovery = false;
    handoff_deferred = false;
  }

(* The crash-during-recovery recorder: same lockstep run, but through the
   controller, with a deterministic panic armed on a reserved path name,
   and [fold_interval + 1] creates after the trigger.  The write stream
   past [recovery_from] is the §3.2 pipeline's own persistence activity
   and the commit that persists its hand-off: journal replay inside the
   contained reboot, nothing from resume until the tail's
   [fold_interval]-th op, whose forced commit writes the hand-off and the
   tail so far.  Enumerating crash points in that suffix is "power fails
   while recovery is writing, or before its hand-off is durable".  A
   small [journal_len] makes a large hand-off commit in chunks inside the
   download instead, ending with a commit before resume.  With [ckpt] the
   recovery seeds from the warm checkpoint first, covering the
   crash-mid-fold path (the fold itself never writes — lint-enforced —
   so its crash surface *is* the seeded recovery's write stream). *)
let trigger_component = "boom"

let record_recovery ?(nblocks = 2048) ?(ninodes = 256) ?journal_len ?(commit_interval = 8)
    ?(ckpt = false) ?(fold_interval = 4) ops =
  let base_image, sim, dev = fresh_run ?journal_len ~nblocks ~ninodes () in
  let bug =
    {
      Bug_registry.id = "crash-sweep-panic";
      determinism = Bug_registry.Deterministic;
      trigger = Bug_registry.Path_component trigger_component;
      consequence = Bug_registry.Panic;
      modeled_after = "deterministic BUG() on a crafted path (Table 1 crash class)";
    }
  in
  let bugs = Bug_registry.arm [ bug ] in
  let b =
    match Base.mount ~config:{ Base.default_config with Base.commit_interval } ~bugs dev with
    | Ok b -> b
    | Error msg -> invalid_arg ("Rae_crash.Recording: mount failed: " ^ msg)
  in
  let policy =
    {
      Controller.default_policy with
      Controller.ckpt_enabled = ckpt;
      ckpt_fold_interval = fold_interval;
    }
  in
  let ctrl = Controller.make ~policy ~device:dev b in
  let spec = Spec.make () in
  let trigger_op = Op.Create (Rae_vfs.Path.parse_exn ("/" ^ trigger_component), 0o644) in
  let tail =
    List.init (fold_interval + 1) (fun i ->
        Op.Create (Rae_vfs.Path.parse_exn (Printf.sprintf "/%s-tail%d" trigger_component i), 0o644))
  in
  let trigger = List.length ops in
  let ops = Array.of_list (ops @ (trigger_op :: tail)) in
  let hazards = Array.make (max 1 (Array.length ops)) [] in
  let boundaries = ref [] in
  let covered = ref 0 in
  let push ~commit_seq =
    boundaries :=
      {
        b_index = List.length !boundaries;
        b_commit_seq = commit_seq;
        b_op = !covered;
        b_event = Array.length (Crashsim.events sim);
        b_spec = Spec.copy spec;
      }
      :: !boundaries
  in
  push ~commit_seq:0L;
  (* Registered after Controller.make, so the controller's oplog-pruning
     hook runs first at every boundary. *)
  Base.on_commit b (fun ~commit_seq -> push ~commit_seq);
  let recovery_from = ref None and handoff_deferred = ref false in
  Array.iteri
    (fun i op ->
      hazards.(i) <- hazard_inos spec op;
      ignore (Spec.exec spec op);
      covered := i + 1;
      if i = trigger then recovery_from := Some (Array.length (Crashsim.events sim));
      ignore (Controller.exec ctrl op);
      if i = trigger then handoff_deferred := (Controller.stats ctrl).Controller.window > 0)
    ops;
  (match Controller.degraded ctrl with
  | Some reason -> invalid_arg ("Rae_crash.Recording: recovery fail-stopped: " ^ reason)
  | None -> ());
  let seeded =
    match Controller.last_recovery ctrl with
    | Some r -> r.Rae_core.Report.r_seeded
    | None -> invalid_arg "Rae_crash.Recording: armed panic did not trigger a recovery"
  in
  {
    events = Crashsim.events sim;
    boundaries = Array.of_list (List.rev !boundaries);
    base_image;
    nblocks;
    ninodes;
    commit_interval;
    ops;
    hazards;
    barriers = true;
    recovery_from = !recovery_from;
    seeded_recovery = seeded;
    handoff_deferred = !handoff_deferred;
  }

let write_count t =
  Array.fold_left
    (fun acc ev -> match ev with Crashsim.Write _ -> acc + 1 | Crashsim.Flush -> acc)
    0 t.events
