open Rae_vfs
module Base = Rae_basefs.Base
module Detector = Rae_basefs.Detector
module Shadow = Rae_shadowfs.Shadow

type policy = {
  treat_warnings_as_errors : bool;
  fsck_before_recovery : bool;
  cross_check : bool;
  abort_on_discrepancy : bool;
  max_recovery_attempts : int;
  shadow_checks : bool;
  ckpt_enabled : bool;
  ckpt_fold_interval : int;
  ckpt_fast_paths : bool;
  slow_op_ns : int;
  ckpt_async_fold : bool;
      (* fold the warm checkpoint on a background domain; false (default)
         folds synchronously on the calling domain *)
}

let default_policy =
  {
    treat_warnings_as_errors = true;
    fsck_before_recovery = true;
    cross_check = true;
    abort_on_discrepancy = false;
    max_recovery_attempts = 3;
    shadow_checks = true;
    ckpt_enabled = false;
    ckpt_fold_interval = 32;
    ckpt_fast_paths = true;
    slow_op_ns = 10_000_000;
    ckpt_async_fold = false;
  }

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
  tracer : Rae_obs.Tracer.t option;
  now : unit -> int64;
  recovery_hist : Rae_obs.Metrics.histogram;
  ph_hists : (string * Rae_obs.Metrics.histogram) list;
  ckpt : Checkpoint.t option;
  events : Rae_obs.Events.t option;  (* flight recorder, shared with base/ckpt/srv *)
  run_id : string;
  rev : string;  (* resolved once; "" when bundles are off *)
  bundle_dir : string option;
  mutable bundle_seq : int;
  mutable bundle_log : string list;  (* written bundle paths, newest first *)
  mutable bundle_extra : (unit -> (string * Rae_obs.Jsonx.t) list) option;
  mutable metrics : Rae_obs.Metrics.t option;  (* set by register_obs, embedded in bundles *)
  mutable in_recovery : bool;
  mutable last_commit_seq : int64;
  mutable committed_during_op : bool;
  mutable degraded : string option;
  mutable recovery_log : Report.recovery list;  (* newest first *)
  mutable s_ops : int;
  mutable s_recoveries : int;
  mutable s_failed : int;
  mutable s_discrepancies : int;
  mutable s_bundles : int;
  mutable s_bundle_errors : int;
}

let make ?(policy = default_policy) ?tracer ?events ?bundle_dir ?(run_id = "") ~device base =
  let now =
    match tracer with
    | Some tr -> fun () -> Rae_obs.Tracer.now tr
    | None -> Rae_obs.Clock.now_ns
  in
  (* The recorder shares the controller's clock so recovery spans and op
     events land on one timeline. *)
  (match events with
  | Some ev -> Rae_obs.Events.set_clock ev (fun () -> Int64.to_int (now ()))
  | None -> ());
  let ckpt =
    if policy.ckpt_enabled then begin
      let c =
        Checkpoint.create ?tracer ?events ~fast_paths:policy.ckpt_fast_paths
          ~shadow_checks:policy.shadow_checks ~fold_interval:policy.ckpt_fold_interval device
      in
      (* The async fold moves off the hot path entirely: the record step
         enqueues, a dedicated domain folds.  The queue stays shallow —
         each entry pins an oplog-suffix snapshot, and recovery's seed
         phase must drain whatever is left. *)
      if policy.ckpt_async_fold then Checkpoint.start_async_fold c ~queue_cap:4;
      Some c
    end
    else None
  in
  let t =
    {
      base;
      device;
      policy;
      oplog = Oplog.create ();
      tracer;
      now;
      recovery_hist = Rae_obs.Metrics.histogram ();
      ph_hists = List.map (fun n -> (n, Rae_obs.Metrics.histogram ())) phase_names;
      ckpt;
      events;
      run_id;
      rev = (match bundle_dir with Some _ -> Rae_obs.Blackbox.git_rev () | None -> "");
      bundle_dir;
      bundle_seq = 0;
      bundle_log = [];
      bundle_extra = None;
      metrics = None;
      in_recovery = false;
      last_commit_seq = 0L;
      committed_during_op = false;
      degraded = None;
      recovery_log = [];
      s_ops = 0;
      s_recoveries = 0;
      s_failed = 0;
      s_discrepancies = 0;
      s_bundles = 0;
      s_bundle_errors = 0;
    }
  in
  (match tracer with Some tr -> Base.set_tracer base tr | None -> ());
  (match events with Some ev -> Base.set_events base ev | None -> ());
  Base.on_commit base (fun ~commit_seq ->
      t.committed_during_op <- true;
      t.last_commit_seq <- commit_seq);
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
    match t.recovery_log with
    | r :: _ when r.Report.r_discrepancies <> [] -> Rae_obs.Events.Degraded
    | _ -> Rae_obs.Events.Healthy

let set_bundle_context t f = t.bundle_extra <- Some f
let bundles t = List.rev t.bundle_log

(* ---- black-box bundle assembly ----

   The obs layer owns only the container ({!Rae_obs.Blackbox}); the
   content — report, checkpoint stats, journal window, policy — is
   serialized here where the core types live. *)

module J = Rae_obs.Jsonx

let policy_json p =
  J.Obj
    [
      ("treat_warnings_as_errors", J.Bool p.treat_warnings_as_errors);
      ("fsck_before_recovery", J.Bool p.fsck_before_recovery);
      ("cross_check", J.Bool p.cross_check);
      ("abort_on_discrepancy", J.Bool p.abort_on_discrepancy);
      ("max_recovery_attempts", J.Int p.max_recovery_attempts);
      ("shadow_checks", J.Bool p.shadow_checks);
      ("ckpt_enabled", J.Bool p.ckpt_enabled);
      ("ckpt_fold_interval", J.Int p.ckpt_fold_interval);
      ("ckpt_fast_paths", J.Bool p.ckpt_fast_paths);
      ("slow_op_ns", J.Int p.slow_op_ns);
      ("ckpt_async_fold", J.Bool p.ckpt_async_fold);
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
       ("events", match t.events with Some ev -> Rae_obs.Events.to_json ev | None -> J.List []);
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
      | Ok path ->
          t.s_bundles <- t.s_bundles + 1;
          t.bundle_log <- path :: t.bundle_log
      | Error _ ->
          (* A failed write must never take recovery down with it; the
             error is visible through rae_blackbox_errors_total. *)
          t.s_bundle_errors <- t.s_bundle_errors + 1)

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
      let next_seq = Oplog.next_seq t.oplog in
      if Checkpoint.due c ~next_seq then
        Checkpoint.fold c ~entries:(Oplog.entries_from t.oplog ~seq:(Checkpoint.cursor c)) ~next_seq

(* ---- recovery ---- *)

exception Recovery_error of string

let run_constrained t shadow entries =
  let replayed = ref 0 and skipped = ref 0 and discrepancies = ref [] in
  let step recorded =
    (* Per-op replay spans (cheap static names from the op kind). *)
    match t.tracer with
    | Some tr ->
        Rae_obs.Tracer.with_span tr ~cat:"replay"
          (Op.kind_to_string (Op.kind recorded.Op.op))
          (fun () -> Shadow.exec_constrained shadow recorded)
    | None -> Shadow.exec_constrained shadow recorded
  in
  List.iter
    (fun ({ Op.op; outcome; seq } as recorded) ->
      match step recorded with
      | Shadow.Skipped_error | Shadow.Skipped_sync -> incr skipped
      | Shadow.Matches -> incr replayed
      | Shadow.Divergence shadow_outcome ->
          incr replayed;
          if t.policy.cross_check then begin
            let d =
              { Report.d_seq = seq; d_op = op; d_base = outcome; d_shadow = shadow_outcome }
            in
            discrepancies := d :: !discrepancies;
            if t.policy.abort_on_discrepancy then
              raise
                (Recovery_error
                   (Format.asprintf "cross-check mismatch: %a" Report.pp_discrepancy d))
          end)
    entries;
  (!replayed, !skipped, List.rev !discrepancies)

(* The full §3.2 protocol.  Returns the in-flight operation's outcome. *)
let recover t ~trigger ~inflight ~attempt =
  let t0 = t.now () in
  t.s_recoveries <- t.s_recoveries + 1;
  t.in_recovery <- true;
  (match t.events with
  | Some ev ->
      Rae_obs.Events.record_recovery_begin ev ~trigger:(Report.trigger_to_string trigger)
  | None -> ());
  let entries = Oplog.entries t.oplog in
  let window = List.length entries in
  let phases = ref [] in
  (* Time one pipeline step: span on the tracer, duration into the phase
     histogram and the [phases] accumulator (closed on exception too, so a
     failed recovery's report still shows where time went). *)
  let phase name f =
    let p0 = t.now () in
    (match t.tracer with Some tr -> Rae_obs.Tracer.span_begin tr ~cat:"recovery" name | None -> ());
    Fun.protect
      ~finally:(fun () ->
        (match t.tracer with Some tr -> Rae_obs.Tracer.span_end tr | None -> ());
        let d = Int64.sub (t.now ()) p0 in
        phases := { Report.ph_name = name; ph_ns = d } :: !phases;
        (match t.events with
        | Some ev -> Rae_obs.Events.record_recovery_phase ev ~phase:name ~ns:(Int64.to_int d)
        | None -> ());
        match List.assoc_opt name t.ph_hists with
        | Some h -> Rae_obs.Metrics.observe h d
        | None -> ())
      f
  in
  let fail_report msg ~replayed ~skipped ~discrepancies ~handoff ~delegated ~seeded =
    Rae_obs.Metrics.observe t.recovery_hist (Int64.sub (t.now ()) t0);
    {
      Report.r_trigger = trigger;
      r_window = window;
      r_replayed = replayed;
      r_skipped = skipped;
      r_discrepancies = discrepancies;
      r_handoff_blocks = handoff;
      r_delegated_sync = delegated;
      r_seeded = seeded;
      r_wall_seconds = Int64.to_float (Int64.sub (t.now ()) t0) /. 1e9;
      r_phases = List.rev !phases;
      r_outcome = (match msg with None -> Report.Recovered | Some m -> Report.Recovery_failed m);
    }
  in
  let append report =
    t.recovery_log <- report :: t.recovery_log;
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
     point ([entries] for cold, the Δ suffix for seeded). *)
  let finish shadow replay_entries ~seeded =
    (* 4. Constrained mode: replay the recorded suffix, cross-checking. *)
    let replayed, skipped, discrepancies =
      phase "constrained-replay" (fun () ->
          try run_constrained t shadow replay_entries
          with Shadow.Violation msg ->
            raise (Recovery_error ("shadow violation in replay: " ^ msg)))
    in
    (* 5. Autonomous mode: the in-flight operation, whose result the
       application has not seen.  Sync operations are not handled by the
       shadow — they are delegated to the rebooted base after hand-off. *)
    let delegated = Op.is_sync inflight in
    let inflight_outcome =
      phase "inflight-autonomous" (fun () ->
          if delegated then Ok Op.Unit
          else
            try Shadow.exec shadow inflight
            with Shadow.Violation msg ->
              raise (Recovery_error ("shadow violation on in-flight op: " ^ msg)))
    in
    (* 6. Hand-off: the base absorbs the shadow's overlay and descriptor
       table through its own well-tested interfaces, then commits.  A
       seeded shadow's overlay carries the imported checkpoint dirt plus
       the Δ replay — exactly the blocks dirtied since the last commit,
       so the download is differential by construction. *)
    let dirty = Shadow.dirty_blocks shadow in
    phase "metadata-download" (fun () ->
        match
          Base.download_metadata t.base ~blocks:dirty ~fd_table:(Shadow.fd_table shadow)
            ~time:(Shadow.time shadow)
        with
        | Ok () -> ()
        | Error msg -> raise (Recovery_error ("metadata download: " ^ msg)));
    (* 7. Resume: prune the log to the recovered state, and re-base the
       warm checkpoint on it (the download's commit is a boundary). *)
    phase "resume" (fun () ->
        Oplog.checkpoint t.oplog ~fds:(Base.fd_table t.base);
        t.committed_during_op <- false;
        ckpt_cut t);
    let report =
      fail_report None ~replayed ~skipped ~discrepancies ~handoff:(List.length dirty) ~delegated
        ~seeded
    in
    append report;
    (* Recovery-completion hook: close the recorder's recovery bracket
       first so the bundle's health gauge reflects the post-recovery
       state, then snapshot everything into a black-box bundle. *)
    t.in_recovery <- false;
    (match t.events with
    | Some ev -> Rae_obs.Events.record_recovery_end ev ~ok:true ~seeded ~replayed
    | None -> ());
    emit_bundle t ~kind:Rae_obs.Blackbox.kind_recovery ~report;
    (* 8. Delegated sync: re-issue on the recovered base. *)
    if delegated then begin
      ignore attempt;
      (* Catch only genuine device failures; detector signals (Base_bug,
         Hang, Validation_failed) must propagate so a second fault during
         the delegated replay is not silently degraded to EIO. *)
      phase "delegated-sync" (fun () ->
          try Base.exec t.base inflight
          with Rae_block.Device.Io_error _ -> Error Errno.EIO)
    end
    else inflight_outcome
  in
  let go_cold () =
    contained_reboot ();
    (* 2. Launch the shadow on S0 (read-only, full checks, optional fsck —
       the liveness precondition). *)
    let config =
      {
        Shadow.default_config with
        Shadow.checks = t.policy.shadow_checks;
        fsck_on_attach = t.policy.fsck_before_recovery;
      }
    in
    let shadow =
      phase "shadow-attach" (fun () ->
          match Shadow.attach ~config ?tracer:t.tracer t.device with
          | Ok s -> s
          | Error msg -> raise (Recovery_error ("shadow attach: " ^ msg)))
    in
    (* 3. Reinstate the descriptors that were open at S0. *)
    phase "fd-reinstate" (fun () ->
        List.iter
          (fun (fd, ino, flags) ->
            match Shadow.install_fd shadow ~fd ~ino flags with
            | Ok () -> ()
            | Error msg -> raise (Recovery_error ("fd reinstatement: " ^ msg)))
          (Oplog.fd_snapshot t.oplog));
    finish shadow entries ~seeded:false
  in
  (* The O(Δ) strategy: seed a fresh shadow from the warm checkpoint (its
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
    let delta = List.filter (fun r -> r.Op.seq >= from_seq) entries in
    finish shadow delta ~seeded:true
  in
  let go () =
    try
      match t.ckpt with
      | Some c when Checkpoint.valid c -> (
          try go_seeded c
          with Recovery_error reason ->
            (* The checkpoint let us down: poison it, note the fallback,
               and reconstruct the slow, trusted way — from S0. *)
            Checkpoint.note_fallback c;
            Checkpoint.poison c;
            (match t.tracer with
            | Some tr -> Rae_obs.Tracer.instant tr ~cat:"ckpt" ("ckpt-fallback:" ^ reason)
            | None -> ());
            go_cold ())
      | _ -> go_cold ()
    with Recovery_error msg ->
      t.s_failed <- t.s_failed + 1;
      t.degraded <- Some msg;
      let report =
        fail_report (Some msg) ~replayed:0 ~skipped:0 ~discrepancies:[] ~handoff:0
          ~delegated:false ~seeded:false
      in
      append report;
      (* Fail-stop hook: the last thing a dying controller does is leave
         a black box behind. *)
      t.in_recovery <- false;
      (match t.events with
      | Some ev ->
          Rae_obs.Events.record_degraded ev ~reason:msg;
          Rae_obs.Events.record_recovery_end ev ~ok:false ~seeded:false ~replayed:0
      | None -> ());
      emit_bundle t ~kind:Rae_obs.Blackbox.kind_failstop ~report;
      Error Errno.EIO
  in
  match t.tracer with
  | Some tr ->
      Rae_obs.Tracer.instant tr ~cat:"recovery" ("detect:" ^ Report.trigger_to_string trigger);
      Rae_obs.Tracer.with_span tr ~cat:"recovery" "recovery" go
  | None -> go ()

(* ---- the execution wrapper ---- *)

let rec exec_attempt t op ~attempt =
  if attempt > t.policy.max_recovery_attempts then Error Errno.EIO
  else
    match Base.exec t.base op with
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
        | { Detector.w_bug; w_msg } :: _ when t.policy.treat_warnings_as_errors && not committed ->
            (* WARN before durability: distrust the base's answer, let the
               shadow re-execute the op in autonomous mode. *)
            let trigger = Report.Warning_storm { bug = w_bug; msg = w_msg } in
            recover t ~trigger ~inflight:op ~attempt
        | _ :: _ when t.policy.treat_warnings_as_errors ->
            (* WARN on an op whose effects already committed (and passed
               the commit-barrier validation): the durable state is
               verified, so re-execution could only diverge — log and
               continue.  The warning stays counted in the detector. *)
            outcome
        | _ ->
            if not committed then begin
              Oplog.record t.oplog op outcome;
              ckpt_fold t
            end;
            outcome)
    | exception Detector.Base_bug { bug; msg } ->
        recover_and_maybe_retry t op ~attempt (Report.Panic { bug; msg })
    | exception Detector.Hang { bug; msg } ->
        recover_and_maybe_retry t op ~attempt (Report.Hang_detected { bug; msg })
    | exception Detector.Validation_failed { context; msg } ->
        recover_and_maybe_retry t op ~attempt (Report.Validation { context; msg })

and recover_and_maybe_retry t op ~attempt trigger =
  t.committed_during_op <- false;
  recover t ~trigger ~inflight:op ~attempt:(attempt + 1)

(* [exec] with an origin: [corr] is the client-supplied correlation id
   (0 = none), [session] the serving-layer session (0 = local/embedded).
   With a recorder attached every completion lands in the ring; the
   strings stored are the constant [kind]/[errno] literals, so the added
   fast-path cost is two clock reads and one ring write. *)
let exec_for t ~corr ~session op =
  t.s_ops <- t.s_ops + 1;
  match t.degraded with
  | Some _ ->
      (match t.events with
      | Some ev ->
          Rae_obs.Events.record_op ev
            ~kind:(Op.kind_to_string (Op.kind op))
            ~errno:(Errno.to_string Errno.EIO) ~lat_ns:0 ~corr ~session
      | None -> ());
      Error Errno.EIO
  | None -> (
      match t.events with
      | None -> exec_attempt t op ~attempt:0
      | Some ev ->
          let t0 = Int64.to_int (t.now ()) in
          let outcome = exec_attempt t op ~attempt:0 in
          let lat_ns = Int64.to_int (t.now ()) - t0 in
          let kind = Op.kind_to_string (Op.kind op) in
          let errno = match outcome with Ok _ -> "" | Error e -> Errno.to_string e in
          Rae_obs.Events.record_op ev ~kind ~errno ~lat_ns ~corr ~session;
          if lat_ns >= t.policy.slow_op_ns then
            Rae_obs.Events.record_slow_op ev ~kind ~lat_ns ~threshold_ns:t.policy.slow_op_ns ~corr
              ~session;
          outcome)

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

let stats t =
  {
    ops = t.s_ops;
    recoveries = t.s_recoveries;
    recoveries_failed = t.s_failed;
    discrepancies = t.s_discrepancies;
    window = Oplog.length t.oplog;
    max_window = Oplog.max_window t.oplog;
    total_recorded = Oplog.total_recorded t.oplog;
    total_discarded = Oplog.total_discarded t.oplog;
  }

let reset_stats t =
  t.s_ops <- 0;
  t.s_recoveries <- 0;
  t.s_failed <- 0;
  t.s_discrepancies <- 0;
  Oplog.reset_stats t.oplog;
  Rae_obs.Metrics.h_reset t.recovery_hist;
  List.iter (fun (_, h) -> Rae_obs.Metrics.h_reset h) t.ph_hists;
  match t.ckpt with Some c -> Checkpoint.reset_stats c | None -> ()

(* Join the checkpoint's background fold domain (drained first —
   shutdown doubles as a barrier).  Call when retiring a controller;
   domains are a bounded OS resource. *)
let shutdown t = match t.ckpt with Some c -> Checkpoint.shutdown c | None -> ()

let checkpoint_now t =
  match t.ckpt with
  | None -> Error "checkpointing is disabled by policy"
  | Some c ->
      Checkpoint.cut c ~window:(Oplog.length t.oplog) ~fds:(Oplog.fd_snapshot t.oplog)
        ~next_seq:(Oplog.next_seq t.oplog) ~commit_seq:t.last_commit_seq

let checkpoint_stats t = Option.map Checkpoint.stats t.ckpt
let checkpoint_valid t = match t.ckpt with Some c -> Checkpoint.valid c | None -> false

let recoveries t = List.rev t.recovery_log

let discrepancies t =
  List.concat_map (fun r -> r.Report.r_discrepancies) (List.rev t.recovery_log)

let last_recovery t = match t.recovery_log with [] -> None | r :: _ -> Some r

let register_obs reg t =
  let module M = Rae_obs.Metrics in
  (* Remember the registry: bundles embed its snapshot at emission time. *)
  t.metrics <- Some reg;
  M.register_gauge reg ~help:"derived health: 0 OK, 1 RECOVERING, 2 DEGRADED, 3 FAILSTOP"
    "rae_health" (fun () -> float_of_int (Rae_obs.Events.health_code (health t)));
  M.register_counter reg ~help:"black-box bundles written"
    ~reset:(fun () -> t.s_bundles <- 0)
    "rae_blackbox_written_total"
    (fun () -> t.s_bundles);
  M.register_counter reg ~help:"black-box bundle write failures"
    ~reset:(fun () -> t.s_bundle_errors <- 0)
    "rae_blackbox_errors_total"
    (fun () -> t.s_bundle_errors);
  (match t.events with
  | Some ev ->
      M.register_counter reg ~help:"flight-recorder events recorded" "rae_flight_events_total"
        (fun () -> Rae_obs.Events.total ev);
      M.register_counter reg ~help:"flight-recorder events overwritten (ring wrap)"
        "rae_flight_dropped_total"
        (fun () -> Rae_obs.Events.dropped ev)
  | None -> ());
  M.register_counter reg ~help:"operations executed through the controller"
    ~reset:(fun () -> t.s_ops <- 0)
    "rae_ops_total"
    (fun () -> t.s_ops);
  M.register_counter reg ~help:"recoveries attempted"
    ~reset:(fun () -> t.s_recoveries <- 0)
    "rae_recoveries_total"
    (fun () -> t.s_recoveries);
  M.register_counter reg ~help:"recoveries that degraded to fail-stop"
    ~reset:(fun () -> t.s_failed <- 0)
    "rae_recoveries_failed_total"
    (fun () -> t.s_failed);
  M.register_counter reg ~help:"base/shadow cross-check mismatches"
    ~reset:(fun () -> t.s_discrepancies <- 0)
    "rae_discrepancies_total"
    (fun () -> t.s_discrepancies);
  M.register_counter reg ~help:"operations ever recorded in the oplog"
    ~reset:(fun () -> Oplog.reset_stats t.oplog)
    "rae_oplog_recorded_total"
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
