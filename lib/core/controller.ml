open Rae_vfs
module Base = Rae_basefs.Base
module Detector = Rae_basefs.Detector
module Shadow = Rae_shadowfs.Shadow

type policy = {
  ckpt_enabled : bool;
  ckpt_fold_interval : int;
  ckpt_fast_paths : bool;
  cross_check : bool;
}

let default_policy =
  { ckpt_enabled = false; ckpt_fold_interval = 32; ckpt_fast_paths = true; cross_check = true }

(* How often one operation may run again on the base after a recovery
   (only a delegated sync does): a runtime error in such a retry starts
   another recovery, and past this bound the operation returns EIO. *)
let max_recovery_attempts = 3

(* Flight-recorder threshold: an op slower than this earns a [Slow_op]
   event next to its [Op_done]. *)
let slow_op_ns = 10_000_000

(* The recovery reports and bundle paths a controller keeps: the newest
   [log_cap] of each, so a daemon that recovers for days holds a bounded
   log.  The counters in [stats] and the metrics stay exact. *)
let log_cap = 256

(* The newest [log_cap] entries of an append-only log. *)
module Log = struct
  type 'a t = { slots : 'a option array; mutable appended : int }

  let create () = { slots = Array.make log_cap None; appended = 0 }

  let push l x =
    l.slots.(l.appended mod log_cap) <- Some x;
    l.appended <- l.appended + 1

  (* The newest [n] entries still held, oldest first. *)
  let newest l n =
    let stop = l.appended - min n (min l.appended log_cap) in
    let rec collect i acc =
      if i < stop then acc
      else
        collect (i - 1) (match l.slots.(i mod log_cap) with Some x -> x :: acc | None -> acc)
    in
    collect (l.appended - 1) []

  let all l = newest l log_cap
  let appended l = l.appended
  let last l = if l.appended = 0 then None else l.slots.((l.appended - 1) mod log_cap)
end

type stats = {
  ops : int;
  recoveries : int;
  recoveries_failed : int;
  discrepancies : int;
  window : int;
  max_window : int;
  total_recorded : int;
  total_discarded : int;
}

(* §3.2 pipeline steps, in order; each gets a span, a [Report.phase] entry
   and a latency histogram.  [delegated-sync] runs after the report is
   built, so it appears in spans and histograms but not in [r_phases].
   A checkpoint-seeded recovery runs [seed] in place of [shadow-attach] +
   [fd-reinstate]; a cold recovery never emits [seed]. *)
let phase_names =
  [
    "contained-reboot";
    "shadow-attach";
    "fd-reinstate";
    "seed";
    "constrained-replay";
    "inflight-autonomous";
    "metadata-download";
    "resume";
    "delegated-sync";
  ]

type t = {
  base : Base.t;
  device : Rae_block.Device.t;
  policy : policy;
  oplog : Oplog.t;
  now : unit -> int64;
  recovery_hist : Rae_obs.Metrics.histogram;
  ph_hists : (string * Rae_obs.Metrics.histogram) list;
  ckpt : Checkpoint.t option;
  events : Rae_obs.Events.t;  (* flight recorder, shared with base/ckpt/srv *)
  run_id : string;
  rev : string;  (* resolved once; "" when bundles are off *)
  bundle_dir : string option;
  mutable bundle_seq : int;
  bundle_log : string Log.t;  (* written bundle paths *)
  mutable bundle_extra : (unit -> (string * Rae_obs.Jsonx.t) list) option;
  mutable metrics : Rae_obs.Metrics.t option;  (* set by register_obs, embedded in bundles *)
  mutable in_recovery : bool;
  mutable last_commit_seq : int64;
  mutable committed_during_op : bool;
  mutable handoff_due : int option;
      (* a hand-off waits in the base's running transaction: the oplog
         seq of the op that commits it, unless a commit comes first *)
  mutable degraded : string option;
  recovery_log : Report.recovery Log.t;
  mutable s_ops : int;
  mutable s_recoveries : int;
  mutable s_discrepancies : int;
}

let make ?(policy = default_policy) ?tracer ?events ?bundle_dir ?(run_id = "") ~device base =
  let now =
    match tracer with
    | Some tr -> fun () -> Rae_obs.Tracer.now tr
    | None -> Rae_obs.Clock.now_ns
  in
  (* One event stream: the caller's ring or our own, on the controller's
     clock, so spans and op events land on one timeline.  A tracer is a
     view of it, fed as the spans and marks are recorded. *)
  let events = match events with Some ev -> ev | None -> Rae_obs.Events.create () in
  Rae_obs.Events.set_clock events (fun () -> Int64.to_int (now ()));
  (match tracer with
  | Some tr ->
      Rae_obs.Events.set_tap events (function
        | Rae_obs.Events.Span_begin { name } -> Rae_obs.Tracer.span_begin tr name
        | Span_end _ -> Rae_obs.Tracer.span_end tr
        | Recovery_begin { trigger } -> Rae_obs.Tracer.instant tr ("detect:" ^ trigger)
        | Ckpt_fallback { reason } -> Rae_obs.Tracer.instant tr ("ckpt-fallback:" ^ reason)
        | _ -> ())
  | None -> ());
  let ckpt =
    if policy.ckpt_enabled then
      Some
        (Checkpoint.create ~events ~fast_paths:policy.ckpt_fast_paths
           ~fold_interval:policy.ckpt_fold_interval device)
    else None
  in
  let t =
    {
      base;
      device;
      policy;
      oplog = Oplog.create ();
      now;
      recovery_hist = Rae_obs.Metrics.histogram ();
      ph_hists = List.map (fun n -> (n, Rae_obs.Metrics.histogram ())) phase_names;
      ckpt;
      events;
      run_id;
      rev = (match bundle_dir with Some _ -> Rae_obs.Blackbox.git_rev () | None -> "");
      bundle_dir;
      bundle_seq = 0;
      bundle_log = Log.create ();
      bundle_extra = None;
      metrics = None;
      in_recovery = false;
      last_commit_seq = 0L;
      committed_during_op = false;
      handoff_due = None;
      degraded = None;
      recovery_log = Log.create ();
      s_ops = 0;
      s_recoveries = 0;
      s_discrepancies = 0;
    }
  in
  Base.set_events base events;
  Base.on_commit base (fun ~commit_seq ->
      t.committed_during_op <- true;
      t.last_commit_seq <- commit_seq;
      t.handoff_due <- None);
  (* Initial cut: mount time is a commit boundary (empty window over S0),
     so checkpointed controllers are warm before the first commit too. *)
  (match ckpt with
  | Some c -> ignore (Checkpoint.cut c ~window:0 ~fds:[] ~next_seq:0 ~commit_seq:0L)
  | None -> ());
  t

let base t = t.base
let degraded t = t.degraded
let events t = t.events
let bundle_dir t = t.bundle_dir

(* Derived liveness: FAILSTOP dominates, then an in-progress recovery,
   then a last recovery that left cross-check discrepancies. *)
let health t =
  if t.degraded <> None then Rae_obs.Events.Failstop
  else if t.in_recovery then Rae_obs.Events.Recovering
  else
    match Log.last t.recovery_log with
    | Some r when r.Report.r_discrepancies <> [] -> Rae_obs.Events.Degraded
    | _ -> Rae_obs.Events.Healthy

let set_bundle_context t f = t.bundle_extra <- Some f
let bundles t = Log.all t.bundle_log

(* ---- black-box bundle assembly ----

   The obs layer owns only the container ({!Rae_obs.Blackbox}); the
   content — report, checkpoint stats, journal window, policy — is
   serialized here where the core types live. *)

module J = Rae_obs.Jsonx

let policy_json p =
  J.Obj
    [
      ("ckpt_enabled", J.Bool p.ckpt_enabled);
      ("ckpt_fold_interval", J.Int p.ckpt_fold_interval);
      ("ckpt_fast_paths", J.Bool p.ckpt_fast_paths);
      ("cross_check", J.Bool p.cross_check);
    ]

let report_json (r : Report.recovery) =
  let outcome, error =
    match r.Report.r_outcome with
    | Report.Recovered -> ("recovered", J.Null)
    | Report.Recovery_failed msg -> ("failed", J.Str msg)
  in
  J.Obj
    [
      ("trigger", J.Str (Report.trigger_to_string r.Report.r_trigger));
      ("outcome", J.Str outcome);
      ("error", error);
      ("window", J.Int r.Report.r_window);
      ("replayed", J.Int r.Report.r_replayed);
      ("skipped", J.Int r.Report.r_skipped);
      ( "discrepancies",
        J.List
          (List.map
             (fun d ->
               J.Obj
                 [
                   ("seq", J.Int d.Report.d_seq);
                   ("op", J.Str (Op.kind_to_string (Op.kind d.Report.d_op)));
                 ])
             r.Report.r_discrepancies) );
      ("handoff_blocks", J.Int r.Report.r_handoff_blocks);
      ("delegated_sync", J.Bool r.Report.r_delegated_sync);
      ("seeded", J.Bool r.Report.r_seeded);
      ("wall_seconds", J.Float r.Report.r_wall_seconds);
      ( "phases",
        J.List
          (List.map
             (fun ph ->
               J.Obj
                 [
                   ("name", J.Str ph.Report.ph_name);
                   ("ns", J.Int (Int64.to_int ph.Report.ph_ns));
                 ])
             r.Report.r_phases) );
    ]

let ckpt_json t =
  match t.ckpt with
  | None -> J.Null
  | Some c ->
      let s = Checkpoint.stats c in
      J.Obj
        [
          ("valid", J.Bool (Checkpoint.valid c));
          ("cursor", J.Int (Checkpoint.cursor c));
          ("base_seq", J.Int (Int64.to_int (Checkpoint.base_seq c)));
          ("cuts", J.Int s.Checkpoint.cuts);
          ("folds", J.Int s.Checkpoint.folds);
          ("folded_ops", J.Int s.Checkpoint.folded_ops);
          ("fold_divergences", J.Int s.Checkpoint.fold_divergences);
          ("seeded", J.Int s.Checkpoint.seeded);
          ("fallbacks", J.Int s.Checkpoint.fallbacks);
          ("poisons", J.Int s.Checkpoint.poisons);
        ]

let journal_json t =
  J.Obj
    [
      ("window", J.Int (Oplog.length t.oplog));
      ("next_seq", J.Int (Oplog.next_seq t.oplog));
      ("commit_seq", J.Int (Int64.to_int t.last_commit_seq));
      ("open_fds", J.Int (List.length (Oplog.fd_snapshot t.oplog)));
      ("total_recorded", J.Int (Oplog.total_recorded t.oplog));
      ("total_discarded", J.Int (Oplog.total_discarded t.oplog));
      ("max_window", J.Int (Oplog.max_window t.oplog));
    ]

let bundle_json t ~kind ~report =
  let extra = match t.bundle_extra with Some f -> f () | None -> [] in
  let impacted =
    match List.assoc_opt "impacted_sessions" extra with Some v -> v | None -> J.List []
  in
  let extra = List.filter (fun (k, _) -> k <> "impacted_sessions") extra in
  J.Obj
    ([
       ("schema", J.Str Rae_obs.Blackbox.schema_version);
       ("kind", J.Str kind);
       ("seq", J.Int (t.bundle_seq + 1));
       ("ts_ns", J.Int (Int64.to_int (t.now ())));
       ("rev", J.Str t.rev);
       ("run_id", J.Str t.run_id);
       ("health", J.Str (Rae_obs.Events.health_to_string (health t)));
       ("policy", policy_json t.policy);
       ("recovery", report_json report);
       ("checkpoint", ckpt_json t);
       ("journal", journal_json t);
       ( "metrics",
         match t.metrics with Some reg -> Rae_obs.Metrics.json reg | None -> J.Obj [] );
       ("events", Rae_obs.Events.to_json t.events);
       ("impacted_sessions", impacted);
     ]
    @ extra)

let emit_bundle t ~kind ~report =
  match t.bundle_dir with
  | None -> ()
  | Some dir -> (
      let json = bundle_json t ~kind ~report in
      t.bundle_seq <- t.bundle_seq + 1;
      match Rae_obs.Blackbox.write ~dir ~seq:t.bundle_seq ~kind json with
      | Ok path -> Log.push t.bundle_log path
      | Error _ ->
          (* A failed write must never take recovery down with it; the
             error is visible through rae_blackbox_errors_total, the
             sequence numbers the log lacks. *)
          ())

(* Re-base the warm checkpoint; sound only when the window is empty (both
   call sites run right after an oplog prune). *)
let ckpt_cut t =
  match t.ckpt with
  | None -> ()
  | Some c ->
      ignore
        (Checkpoint.cut c ~window:(Oplog.length t.oplog) ~fds:(Oplog.fd_snapshot t.oplog)
           ~next_seq:(Oplog.next_seq t.oplog) ~commit_seq:t.last_commit_seq)

(* Advance the warm shadow if the unfolded suffix is long enough. *)
let ckpt_fold t =
  match t.ckpt with
  | None -> ()
  | Some c ->
      if Checkpoint.due c ~next_seq:(Oplog.next_seq t.oplog) then Checkpoint.fold c t.oplog

(* [Base.exec], plus the commit of a hand-off once its bound comes due.
   It runs after the op, as a group commit inside the op would, so every
   commit covers whole ops, and its barrier failure recovers this op.  An
   op that warned leaves it to its own recovery; a device error leaves
   the hand-off for the next op to commit. *)
let base_exec t op =
  let outcome = Base.exec t.base op in
  (match t.handoff_due with
  | Some due
    when Oplog.next_seq t.oplog >= due && Detector.warnings (Base.detector t.base) = [] ->
      ignore (Base.sync t.base : (unit, Errno.t) result)
  | Some _ | None -> ());
  outcome

(* ---- recovery ---- *)

exception Recovery_error of string

(* The full §3.2 protocol, as recovery number [attempt] of the in-flight
   operation.  Returns that operation's outcome. *)
let rec recover t ~trigger ~inflight ~attempt =
  t.s_recoveries <- t.s_recoveries + 1;
  t.in_recovery <- true;
  Rae_obs.Events.record_recovery_begin t.events ~trigger:(Report.trigger_to_string trigger);
  let t0 = Rae_obs.Events.span_begin t.events "recovery" in
  let window = Oplog.length t.oplog in
  let phases = ref [] in
  (* Time one pipeline step as a span in the ring; its duration also goes
     into the phase histogram and the [phases] accumulator (closed on
     exception too, so a failed recovery's report still shows where time
     went).  A device error or a shadow violation in a step fails it like
     any other recovery error: a seeded attempt falls back to the cold
     path, the cold path fail-stops. *)
  let phase name f =
    let f () =
      try f () with
      | Rae_block.Device.Io_error msg -> raise (Recovery_error (name ^ ": device error: " ^ msg))
      | Shadow.Violation msg -> raise (Recovery_error (name ^ ": shadow violation: " ^ msg))
    in
    let since = Rae_obs.Events.span_begin t.events name in
    Fun.protect
      ~finally:(fun () ->
        let d = Int64.of_int (Rae_obs.Events.span_end t.events name ~since) in
        phases := { Report.ph_name = name; ph_ns = d } :: !phases;
        match List.assoc_opt name t.ph_hists with
        | Some h -> Rae_obs.Metrics.observe h d
        | None -> ())
      f
  in
  (* The recovery span ends where the report reads its wall time, before
     the bundle is written, so the bundle holds the span's end and the
     two agree; the delegated sync runs after it, in its own span.  The
     [Fun.protect] below closes it on any other way out. *)
  let span_open = ref true in
  let end_span () =
    if !span_open then begin
      span_open := false;
      Int64.of_int (Rae_obs.Events.span_end t.events "recovery" ~since:t0)
    end
    else Int64.sub (t.now ()) (Int64.of_int t0)
  in
  let fail_report msg ~replayed ~skipped ~discrepancies ~handoff ~delegated ~seeded =
    (* One clock read, so the span, the histogram and the report agree. *)
    let wall = end_span () in
    Rae_obs.Metrics.observe t.recovery_hist wall;
    {
      Report.r_trigger = trigger;
      r_window = window;
      r_replayed = replayed;
      r_skipped = skipped;
      r_discrepancies = discrepancies;
      r_handoff_blocks = handoff;
      r_delegated_sync = delegated;
      r_seeded = seeded;
      r_wall_seconds = Int64.to_float wall /. 1e9;
      r_phases = List.rev !phases;
      r_outcome = (match msg with None -> Report.Recovered | Some m -> Report.Recovery_failed m);
    }
  in
  let append report =
    Log.push t.recovery_log report;
    t.s_discrepancies <- t.s_discrepancies + List.length report.Report.r_discrepancies
  in
  (* 1. Contained reboot: discard the base's untrusted memory, recover the
     trusted on-disk state S0 via journal replay.  Both reconstruction
     strategies start here (the fallback re-runs it to wipe any partial
     hand-off a failed seeded attempt left in the base's caches). *)
  let contained_reboot () =
    phase "contained-reboot" (fun () ->
        match Base.contained_reboot t.base with
        | Ok () -> ()
        | Error msg -> raise (Recovery_error ("contained reboot: " ^ msg)))
  in
  (* Steps 4-8, shared by the cold and checkpoint-seeded strategies: the
     strategies differ only in how the shadow reaches the replay start
     point (the whole window for cold, the Δ suffix for seeded). *)
  let finish shadow replay_entries ~seeded =
    (* 4. Constrained mode: replay the recorded suffix as one window,
       cross-checking.  A summary violation surfaces at the window's end,
       still in this phase and before any hand-off. *)
    let discrepancies = ref [] in
    let on_op { Op.op; outcome; seq } = function
      | Shadow.Divergence d_shadow when t.policy.cross_check ->
          discrepancies :=
            { Report.d_seq = seq; d_op = op; d_base = outcome; d_shadow } :: !discrepancies
      | _ -> ()
    in
    let w =
      phase "constrained-replay" (fun () ->
          Shadow.exec_constrained_window ~on_op shadow replay_entries)
    in
    let replayed = w.Shadow.w_matches + w.Shadow.w_divergences and skipped = w.Shadow.w_skipped in
    let discrepancies = List.rev !discrepancies in
    (* 5. Autonomous mode: the in-flight operation, whose result the
       application has not seen.  Sync operations are not handled by the
       shadow — they are delegated to the rebooted base after hand-off. *)
    let delegated = Op.is_sync inflight in
    let inflight_outcome =
      phase "inflight-autonomous" (fun () ->
          if delegated then Ok Op.Unit else Shadow.exec shadow inflight)
    in
    (* 6. Hand-off: the base absorbs the shadow's overlay and descriptor
       table through its own well-tested interfaces, as dirty state that
       passed the commit barrier's checks.  A seeded shadow's overlay
       carries the folded prefix plus the Δ replay — exactly the blocks
       dirtied since the last commit, so the download is differential by
       construction. *)
    let dirty = Shadow.dirty_blocks shadow in
    phase "metadata-download" (fun () ->
        match
          Base.download_metadata t.base ~blocks:dirty ~fd_table:(Shadow.fd_table shadow)
            ~time:(Shadow.time shadow)
        with
        | Ok () -> ()
        | Error msg -> raise (Recovery_error ("metadata download: " ^ msg)));
    (* 7. Resume.  The disk still holds S0, so S0 plus the log rebuild
       what clients have seen: the log keeps its window and gains the
       in-flight op with the shadow's outcome (a delegated sync records
       itself below).  The next commit prunes the log and re-cuts the
       checkpoint, in [exec_attempt]: the base's own, or the one forced
       [ckpt_fold_interval] ops after the first hand-off it carries.  A
       recovery of the op at that bound commits here instead, so a run of
       back-to-back recoveries still commits within the bound; so does a
       chunked download, which has committed already (the hook saw it). *)
    phase "resume" (fun () ->
        if not t.committed_during_op then begin
          if not delegated then Oplog.record t.oplog inflight inflight_outcome;
          match t.handoff_due with
          | None -> t.handoff_due <- Some (Oplog.next_seq t.oplog + t.policy.ckpt_fold_interval - 1)
          | Some due when Oplog.next_seq t.oplog > due -> (
              try Base.commit t.base with
              | Detector.Validation_failed { context; msg } ->
                  raise (Recovery_error (Printf.sprintf "hand-off commit: %s: %s" context msg))
              | Detector.Base_bug { bug; msg } ->
                  raise (Recovery_error (Printf.sprintf "hand-off commit: %s: %s" bug msg)))
          | Some _ -> ()
        end;
        if t.committed_during_op then begin
          t.committed_during_op <- false;
          Oplog.checkpoint t.oplog ~fds:(Base.fd_table t.base);
          ckpt_cut t
        end);
    let report =
      fail_report None ~replayed ~skipped ~discrepancies ~handoff:(List.length dirty) ~delegated
        ~seeded
    in
    append report;
    (* Recovery-completion hook: close the recorder's recovery bracket
       first so the bundle's health gauge reflects the post-recovery
       state, then snapshot everything into a black-box bundle. *)
    t.in_recovery <- false;
    Rae_obs.Events.record_recovery_end t.events ~ok:true ~seeded ~replayed;
    emit_bundle t ~kind:Rae_obs.Blackbox.kind_recovery ~report;
    (* 8. Delegated sync: run it again on the recovered base through the
       controller's own execution path, so a runtime error there starts a
       fresh recovery like any other; [exec_attempt] bounds the nesting.
       A device failure maps straight to EIO. *)
    if delegated then
      phase "delegated-sync" (fun () ->
          try exec_attempt t inflight ~attempt
          with Rae_block.Device.Io_error _ -> Error Errno.EIO)
    else inflight_outcome
  in
  let go_cold () =
    contained_reboot ();
    (* 2. Launch the shadow on S0 (read-only, full checks), behind a full
       fsck of the image: the paper's liveness precondition. *)
    let shadow =
      phase "shadow-attach" (fun () ->
          let report =
            Rae_obs.Events.with_span t.events "fsck" (fun () -> Rae_fsck.Fsck.check_device t.device)
          in
          match Rae_fsck.Fsck.errors report with
          | [] -> (
              match Shadow.attach t.device with
              | Ok s -> s
              | Error msg -> raise (Recovery_error ("shadow attach: " ^ msg)))
          | f :: _ ->
              raise
                (Recovery_error
                   (Format.asprintf "shadow attach: fsck rejected the image: %a"
                      Rae_fsck.Fsck.pp_finding f)))
    in
    (* 3. Reinstate the descriptors that were open at S0. *)
    phase "fd-reinstate" (fun () ->
        List.iter
          (fun (fd, ino, flags) ->
            match Shadow.install_fd shadow ~fd ~ino flags with
            | Ok () -> ()
            | Error msg -> raise (Recovery_error ("fd reinstatement: " ^ msg)))
          (Oplog.fd_snapshot t.oplog));
    finish shadow (Oplog.entries t.oplog) ~seeded:false
  in
  (* The O(Δ) strategy: take the warm shadow from the checkpoint (its
     overlay already reflects the folded prefix of the window) and replay
     only the suffix past the fold cursor. *)
  let go_seeded c =
    contained_reboot ();
    let shadow, from_seq =
      phase "seed" (fun () ->
          match Checkpoint.seed c with
          | Ok (s, cursor) -> (s, cursor)
          | Error msg -> raise (Recovery_error msg))
    in
    finish shadow (Oplog.entries_from t.oplog ~seq:from_seq) ~seeded:true
  in
  let go () =
    try
      match t.ckpt with
      | Some c when Checkpoint.valid c -> (
          try go_seeded c
          with Recovery_error reason ->
            (* The seeded attempt failed: note the fallback and
               reconstruct the slow, trusted way — from S0.  The seed
               already spent the checkpoint; the cold path's resume
               re-cuts it. *)
            Checkpoint.note_fallback c ~reason;
            go_cold ())
      | _ -> go_cold ()
    with Recovery_error msg ->
      t.degraded <- Some msg;
      let report =
        fail_report (Some msg) ~replayed:0 ~skipped:0 ~discrepancies:[] ~handoff:0
          ~delegated:false ~seeded:false
      in
      append report;
      (* Fail-stop hook: the last thing a dying controller does is leave
         a black box behind. *)
      t.in_recovery <- false;
      Rae_obs.Events.record_degraded t.events ~reason:msg;
      Rae_obs.Events.record_recovery_end t.events ~ok:false ~seeded:false ~replayed:0;
      emit_bundle t ~kind:Rae_obs.Blackbox.kind_failstop ~report;
      Error Errno.EIO
  in
  Fun.protect ~finally:(fun () -> ignore (end_span () : int64)) go

(* ---- the execution wrapper ---- *)

(* Run [op] on the base; [attempt] counts the recoveries of [op] so far,
   and a runtime error starts the next one. *)
and exec_attempt t op ~attempt =
  if attempt > max_recovery_attempts then Error Errno.EIO
  else
    match base_exec t op with
    | outcome -> (
        (* If a group commit ran inside this op, the whole window —
           including this op — is durable: prune the log first, whatever
           else happened. *)
        let committed = t.committed_during_op in
        t.committed_during_op <- false;
        if committed then begin
          Oplog.checkpoint t.oplog ~fds:(Base.fd_table t.base);
          ckpt_cut t
        end;
        let warned = Detector.warnings (Base.detector t.base) in
        Detector.clear (Base.detector t.base);
        match warned with
        | { Detector.w_bug; w_msg } :: _ when not committed ->
            (* WARN before durability: distrust the base's answer, let the
               shadow re-execute the op in autonomous mode. *)
            start_recovery t op ~attempt (Report.Warning_storm { bug = w_bug; msg = w_msg })
        | _ :: _ ->
            (* WARN on an op whose effects already committed (and passed
               the commit-barrier validation): the durable state is
               verified, so re-execution could only diverge — log and
               continue.  The warning stays counted in the detector. *)
            outcome
        | [] ->
            if not committed then begin
              Oplog.record t.oplog op outcome;
              ckpt_fold t
            end;
            outcome)
    | exception Detector.Base_bug { bug; msg } ->
        start_recovery t op ~attempt (Report.Panic { bug; msg })
    | exception Detector.Hang { bug; msg } ->
        start_recovery t op ~attempt (Report.Hang_detected { bug; msg })
    | exception Detector.Validation_failed { context; msg } ->
        start_recovery t op ~attempt (Report.Validation { context; msg })

and start_recovery t op ~attempt trigger =
  t.committed_during_op <- false;
  recover t ~trigger ~inflight:op ~attempt:(attempt + 1)

(* [exec] with an origin: [corr] is the client-supplied correlation id
   (0 = none), [session] the serving-layer session (0 = local/embedded).
   Every completion lands in the ring; the strings stored are the
   constant [kind]/[errno] literals, so the fast-path cost is two clock
   reads and one ring write. *)
let exec_for t ~corr ~session op =
  t.s_ops <- t.s_ops + 1;
  let kind = Op.kind_to_string (Op.kind op) in
  match t.degraded with
  | Some _ ->
      Rae_obs.Events.record_op t.events ~kind ~errno:(Errno.to_string Errno.EIO) ~lat_ns:0 ~corr
        ~session;
      Error Errno.EIO
  | None ->
      let t0 = Int64.to_int (t.now ()) in
      let outcome = exec_attempt t op ~attempt:0 in
      let lat_ns = Int64.to_int (t.now ()) - t0 in
      let errno = match outcome with Ok _ -> "" | Error e -> Errno.to_string e in
      Rae_obs.Events.record_op t.events ~kind ~errno ~lat_ns ~corr ~session;
      if lat_ns >= slow_op_ns then
        Rae_obs.Events.record_slow_op t.events ~kind ~lat_ns ~threshold_ns:slow_op_ns ~corr
          ~session;
      outcome

let exec t op = exec_for t ~corr:0 ~session:0 op

(* ---- the named API, routed through exec ---- *)

let ino_of = function Ok (Op.Ino i) -> Ok i | Ok _ -> Error Errno.EIO | Error e -> Error e
let unit_of = function Ok Op.Unit -> Ok () | Ok _ -> Error Errno.EIO | Error e -> Error e
let fd_of = function Ok (Op.Fd f) -> Ok f | Ok _ -> Error Errno.EIO | Error e -> Error e
let data_of = function Ok (Op.Data d) -> Ok d | Ok _ -> Error Errno.EIO | Error e -> Error e
let len_of = function Ok (Op.Len n) -> Ok n | Ok _ -> Error Errno.EIO | Error e -> Error e
let st_of = function Ok (Op.St s) -> Ok s | Ok _ -> Error Errno.EIO | Error e -> Error e
let names_of = function Ok (Op.Names n) -> Ok n | Ok _ -> Error Errno.EIO | Error e -> Error e

let create t path ~mode = ino_of (exec t (Op.Create (path, mode)))
let mkdir t path ~mode = ino_of (exec t (Op.Mkdir (path, mode)))
let unlink t path = unit_of (exec t (Op.Unlink path))
let rmdir t path = unit_of (exec t (Op.Rmdir path))
let openf t path flags = fd_of (exec t (Op.Open (path, flags)))
let close t fd = unit_of (exec t (Op.Close fd))
let pread t fd ~off ~len = data_of (exec t (Op.Pread (fd, off, len)))
let pwrite t fd ~off data = len_of (exec t (Op.Pwrite (fd, off, data)))
let lookup t path = ino_of (exec t (Op.Lookup path))
let stat t path = st_of (exec t (Op.Stat path))
let fstat t fd = st_of (exec t (Op.Fstat fd))
let readdir t path = names_of (exec t (Op.Readdir path))
let rename t src dst = unit_of (exec t (Op.Rename (src, dst)))
let truncate t path ~size = unit_of (exec t (Op.Truncate (path, size)))
let link t src dst = unit_of (exec t (Op.Link (src, dst)))
let symlink t ~target path = ino_of (exec t (Op.Symlink (target, path)))
let readlink t path = data_of (exec t (Op.Readlink path))
let chmod t path ~mode = unit_of (exec t (Op.Chmod (path, mode)))
let fsync t fd = unit_of (exec t (Op.Fsync fd))
let sync t = unit_of (exec t Op.Sync)

(* ---- introspection ---- *)

(* Fail-stop is terminal: once degraded, no recovery runs again, so the
   recoveries that failed number exactly one. *)
let recoveries_failed t = if t.degraded = None then 0 else 1

let stats t =
  {
    ops = t.s_ops;
    recoveries = t.s_recoveries;
    recoveries_failed = recoveries_failed t;
    discrepancies = t.s_discrepancies;
    window = Oplog.length t.oplog;
    max_window = Oplog.max_window t.oplog;
    total_recorded = Oplog.total_recorded t.oplog;
    total_discarded = Oplog.total_discarded t.oplog;
  }

let checkpoint_now t =
  match t.ckpt with
  | None -> Error "checkpointing is disabled by policy"
  | Some c ->
      Checkpoint.cut c ~window:(Oplog.length t.oplog) ~fds:(Oplog.fd_snapshot t.oplog)
        ~next_seq:(Oplog.next_seq t.oplog) ~commit_seq:t.last_commit_seq

let checkpoint_stats t = Option.map Checkpoint.stats t.ckpt
let checkpoint_valid t = match t.ckpt with Some c -> Checkpoint.valid c | None -> false

let recoveries t = Log.all t.recovery_log
let recent_recoveries t n = Log.newest t.recovery_log n
let discrepancies t = List.concat_map (fun r -> r.Report.r_discrepancies) (recoveries t)
let last_recovery t = Log.last t.recovery_log

let register_obs reg t =
  let module M = Rae_obs.Metrics in
  (* Remember the registry: bundles embed its snapshot at emission time. *)
  t.metrics <- Some reg;
  M.register_gauge reg ~help:"derived health: 0 OK, 1 RECOVERING, 2 DEGRADED, 3 FAILSTOP"
    "rae_health" (fun () -> float_of_int (Rae_obs.Events.health_code (health t)));
  M.register_counter reg ~help:"black-box bundles written" "rae_blackbox_written_total"
    (fun () -> Log.appended t.bundle_log);
  M.register_counter reg ~help:"black-box bundle write failures" "rae_blackbox_errors_total"
    (fun () -> t.bundle_seq - Log.appended t.bundle_log);
  M.register_counter reg ~help:"flight-recorder events recorded" "rae_flight_events_total"
    (fun () -> Rae_obs.Events.total t.events);
  M.register_counter reg ~help:"flight-recorder events overwritten (ring wrap)"
    "rae_flight_dropped_total" (fun () -> Rae_obs.Events.dropped t.events);
  M.register_counter reg ~help:"operations executed through the controller" "rae_ops_total"
    (fun () -> t.s_ops);
  M.register_counter reg ~help:"recoveries attempted" "rae_recoveries_total" (fun () ->
      t.s_recoveries);
  M.register_counter reg ~help:"recoveries that degraded to fail-stop"
    "rae_recoveries_failed_total" (fun () -> recoveries_failed t);
  M.register_counter reg ~help:"base/shadow cross-check mismatches" "rae_discrepancies_total"
    (fun () -> t.s_discrepancies);
  M.register_counter reg ~help:"operations ever recorded in the oplog" "rae_oplog_recorded_total"
    (fun () -> Oplog.total_recorded t.oplog);
  M.register_counter reg ~help:"oplog operations discarded at checkpoints" "rae_oplog_discarded_total"
    (fun () -> Oplog.total_discarded t.oplog);
  M.register_gauge reg ~help:"currently recorded (volatile) operations" "rae_oplog_window" (fun () ->
      float_of_int (Oplog.length t.oplog));
  M.register_gauge reg ~help:"largest oplog window observed" "rae_oplog_max_window" (fun () ->
      float_of_int (Oplog.max_window t.oplog));
  M.register_gauge reg ~help:"1 once the controller is in fail-stop mode" "rae_degraded" (fun () ->
      match t.degraded with Some _ -> 1. | None -> 0.);
  M.register_histogram reg ~help:"end-to-end recovery latency (ns)" "rae_recovery_ns"
    t.recovery_hist;
  List.iter
    (fun (name, h) ->
      M.register_histogram reg
        ~help:(Printf.sprintf "recovery phase %s latency (ns)" name)
        (Printf.sprintf "rae_phase_%s_ns" (String.map (fun c -> if c = '-' then '_' else c) name))
        h)
    t.ph_hists;
  (match t.ckpt with Some c -> Checkpoint.register_obs reg c | None -> ());
  Base.register_obs reg t.base
