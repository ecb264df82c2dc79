(* Unit and property tests for rae_obs: histogram quantiles, the metrics
   registry, span nesting, Chrome-trace export/validation, and the whole
   stack producing phase-timed recovery reports. *)

open Rae_vfs
module Metrics = Rae_obs.Metrics
module Tracer = Rae_obs.Tracer
module Events = Rae_obs.Events
module Blackbox = Rae_obs.Blackbox
module Jsonx = Rae_obs.Jsonx
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Controller = Rae_core.Controller
module Report = Rae_core.Report

let p = Path.parse_exn

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A fresh directory path for bundle-emission tests; Blackbox.write
   creates it on first use. *)
let tmpdir () =
  let path = Filename.temp_file "rae-test-bundles" "" in
  Sys.remove path;
  path

(* ---- histograms ---- *)

let samples_gen = QCheck2.Gen.(list_size (int_range 1 400) (int_range 0 1_000_000))

let prop_counts_conserved =
  QCheck2.Test.make ~name:"histogram conserves sample count" ~count:200 samples_gen (fun xs ->
      let h = Metrics.histogram () in
      List.iter (fun x -> Metrics.observe h (Int64.of_int x)) xs;
      Metrics.h_count h = List.length xs)

let prop_quantiles_ordered =
  QCheck2.Test.make ~name:"p50 <= p90 <= p99 <= max" ~count:200 samples_gen (fun xs ->
      let h = Metrics.histogram () in
      List.iter (fun x -> Metrics.observe h (Int64.of_int x)) xs;
      let q50 = Metrics.quantile h 0.5
      and q90 = Metrics.quantile h 0.9
      and q99 = Metrics.quantile h 0.99 in
      q50 <= q90 && q90 <= q99 && Metrics.quantile h 0.0 <= q50)

let prop_quantile_monotone_in_q =
  QCheck2.Test.make ~name:"quantile monotone in q" ~count:200
    QCheck2.Gen.(pair samples_gen (list_size (int_range 2 20) (float_range 0. 1.)))
    (fun (xs, qs) ->
      let h = Metrics.histogram () in
      List.iter (fun x -> Metrics.observe h (Int64.of_int x)) xs;
      let qs = List.sort compare qs in
      let vs = List.map (Metrics.quantile h) qs in
      let rec mono = function a :: (b :: _ as rest) -> a <= b && mono rest | _ -> true in
      mono vs)

let prop_quantile_bracketed =
  QCheck2.Test.make ~name:"quantile stays within [min-bucket, 2*max]" ~count:200 samples_gen
    (fun xs ->
      let h = Metrics.histogram () in
      List.iter (fun x -> Metrics.observe h (Int64.of_int x)) xs;
      let q = Metrics.quantile h 0.99 in
      q >= 0. && q <= Float.max 2. (2. *. Metrics.h_max h))

let test_histogram_basics () =
  let h = Metrics.histogram () in
  Alcotest.(check (float 0.)) "empty quantile" 0. (Metrics.quantile h 0.5);
  Metrics.observe h 100L;
  Metrics.observe h (-5L) (* clamped to 0 *);
  Alcotest.(check int) "count" 2 (Metrics.h_count h);
  Alcotest.(check (float 0.)) "sum counts clamped negative as 0" 100. (Metrics.h_sum h);
  Alcotest.(check (float 0.)) "max" 100. (Metrics.h_max h)

(* ---- registry ---- *)

let test_registry_snapshot_replace () =
  let reg = Metrics.create () in
  let n = ref 7 in
  Metrics.register_counter reg ~help:"test" "acme_ops" (fun () -> !n);
  Metrics.register_gauge reg "acme_depth" (fun () -> 2.5);
  let h = Metrics.histogram () in
  Metrics.observe h 1000L;
  Metrics.register_histogram reg "acme_lat" h;
  (match Metrics.find reg "acme_ops" with
  | Some (Metrics.Counter 7) -> ()
  | _ -> Alcotest.fail "counter sample");
  Alcotest.(check (list string)) "names sorted"
    [ "acme_depth"; "acme_lat"; "acme_ops" ]
    (Metrics.names reg);
  Alcotest.(check int) "snapshot size" 3 (List.length (Metrics.snapshot reg));
  (* Re-registering a name replaces the metric. *)
  Metrics.register_gauge reg "acme_depth" (fun () -> 9.);
  (match Metrics.find reg "acme_depth" with
  | Some (Metrics.Gauge g) -> Alcotest.(check (float 0.)) "replaced" 9. g
  | _ -> Alcotest.fail "gauge sample");
  (* The registry keeps no copy: every read samples the subsystem's own
     state, so a counter and a histogram move between two snapshots. *)
  n := 9;
  Metrics.observe h 3000L;
  (match Metrics.find reg "acme_ops" with
  | Some (Metrics.Counter 9) -> ()
  | _ -> Alcotest.fail "counter sampled at read time");
  match List.assoc_opt "acme_lat" (Metrics.snapshot reg) with
  | Some (Metrics.Histo { count = 2; _ }) -> ()
  | _ -> Alcotest.fail "histogram sampled at read time"

let test_prometheus_export () =
  let reg = Metrics.create () in
  Metrics.register_counter reg ~help:"ops so far" "x_total" (fun () -> 3);
  let h = Metrics.histogram () in
  Metrics.observe h 512L;
  Metrics.register_histogram reg "lat.ns" h;
  let text = Metrics.to_prometheus reg in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (contains "x_total 3");
  Alcotest.(check bool) "TYPE line" true (contains "# TYPE x_total counter");
  Alcotest.(check bool) "HELP line" true (contains "# HELP x_total ops so far");
  Alcotest.(check bool) "name sanitised" true (contains "lat_ns");
  Alcotest.(check bool) "summary count" true (contains "lat_ns_count 1");
  Alcotest.(check bool) "quantile label" true (contains "{quantile=\"0.5\"}")

(* ---- span nesting ---- *)

(* Random begin/end sequences, with enable/disable toggles thrown in: the
   recorded event stream must stay balanced regardless. *)
let prop_span_nesting =
  QCheck2.Test.make ~name:"random begin/end/toggle keeps trace balanced" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 3))
    (fun actions ->
      let t = Tracer.create () in
      Tracer.enable t;
      List.iter
        (fun a ->
          match a with
          | 0 -> Tracer.span_begin t "s"
          | 1 -> Tracer.span_end t
          | 2 -> Tracer.instant t "i"
          | _ -> if Tracer.enabled t then Tracer.disable t else Tracer.enable t)
        actions;
      Tracer.depth t >= 0
      &&
      match Tracer.validate_chrome (Tracer.to_chrome t) with Ok _ -> true | Error _ -> false)

let test_span_basics () =
  let now = ref 0L in
  let t = Tracer.create ~clock:(fun () -> !now) () in
  Tracer.enable t;
  Tracer.span_begin t "outer";
  now := 10L;
  Tracer.span_begin t ~cat:"x" "inner";
  now := 20L;
  Alcotest.(check int) "depth" 2 (Tracer.depth t);
  Tracer.span_end t;
  Tracer.span_end t;
  Tracer.span_end t (* unbalanced end: no-op *);
  Alcotest.(check int) "depth back to 0" 0 (Tracer.depth t);
  match Tracer.events t with
  | [ Tracer.Begin { name = "outer"; _ }; Tracer.Begin { name = "inner"; cat = "x"; _ };
      Tracer.End { name = "inner"; _ }; Tracer.End { name = "outer"; _ } ] ->
      ()
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs)

let test_disabled_tracer_records_nothing () =
  let t = Tracer.create () in
  Tracer.span_begin t "quiet";
  Tracer.instant t "never";
  Tracer.span_end t;
  Alcotest.(check int) "no events" 0 (List.length (Tracer.events t));
  (* A span opened while disabled must not emit a dangling E once enabled. *)
  Tracer.span_begin t "pre";
  Tracer.enable t;
  Tracer.span_end t;
  Alcotest.(check int) "still no events" 0 (List.length (Tracer.events t))

let test_monotone_clamp () =
  let now = ref 100L in
  let t = Tracer.create ~clock:(fun () -> !now) () in
  Tracer.enable t;
  Tracer.instant t "a";
  now := 50L (* clock goes backwards *);
  Tracer.instant t "b";
  match Tracer.events t with
  | [ Tracer.Instant { ts = a; _ }; Tracer.Instant { ts = b; _ } ] ->
      Alcotest.(check bool) "clamped monotone" true (Int64.compare b a >= 0)
  | _ -> Alcotest.fail "expected two instants"

(* ---- Chrome trace round-trip ---- *)

let test_chrome_roundtrip () =
  let now = ref 0L in
  let t = Tracer.create ~clock:(fun () -> !now) () in
  Tracer.enable t;
  Tracer.instant t "start";
  Tracer.span_begin t "a";
  now := 1500L;
  Tracer.span_begin t "b \"quoted\"";
  now := 2000L;
  Tracer.span_end t;
  Tracer.span_end t;
  let s = Tracer.to_chrome t in
  (match Tracer.validate_chrome s with
  | Ok n -> Alcotest.(check int) "event count" 5 n
  | Error msg -> Alcotest.failf "expected valid trace: %s" msg);
  match Tracer.parse_chrome s with
  | Ok evs ->
      Alcotest.(check int) "parsed all" 5 (List.length evs);
      let names = List.map (fun e -> e.Tracer.ev_name) evs in
      Alcotest.(check bool) "escaped name round-trips" true (List.mem "b \"quoted\"" names)
  | Error msg -> Alcotest.failf "parse: %s" msg

let test_chrome_open_spans_closed_at_export () =
  let t = Tracer.create () in
  Tracer.enable t;
  Tracer.span_begin t "left-open";
  match Tracer.validate_chrome (Tracer.to_chrome t) with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected synthetic close (2 events), got %d" n
  | Error msg -> Alcotest.failf "expected valid trace: %s" msg

let test_chrome_rejects_malformed () =
  let bad input =
    match Tracer.validate_chrome input with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "garbage" true (bad "hello\nworld");
  (* Unbalanced: an E with no matching B. *)
  let unbalanced =
    "{\"traceEvents\":[\n{\"name\":\"x\",\"cat\":\"c\",\"ph\":\"E\",\"ts\":1.0,\"pid\":1,\"tid\":1}\n\
     ],\"displayTimeUnit\":\"ms\"}\n"
  in
  Alcotest.(check bool) "unbalanced" true (bad unbalanced);
  (* Non-monotone timestamps. *)
  let backwards =
    "{\"traceEvents\":[\n\
     {\"name\":\"x\",\"cat\":\"c\",\"ph\":\"B\",\"ts\":5.0,\"pid\":1,\"tid\":1},\n\
     {\"name\":\"x\",\"cat\":\"c\",\"ph\":\"E\",\"ts\":1.0,\"pid\":1,\"tid\":1}\n\
     ],\"displayTimeUnit\":\"ms\"}\n"
  in
  Alcotest.(check bool) "non-monotone" true (bad backwards)

(* ---- the full stack: recovery emits spans and phase timings ---- *)

let boom_panic =
  {
    Bug_registry.id = "test-panic";
    determinism = Bug_registry.Deterministic;
    trigger = Bug_registry.Path_component "boom";
    consequence = Bug_registry.Panic;
    modeled_after = "test";
  }

(* A fresh base with the panic (or [bugs]) armed, and its device. *)
let mk_base ?(bugs = [ boom_panic ]) () =
  let disk =
    Rae_block.Disk.create ~latency:Rae_block.Disk.zero_latency
      ~block_size:Rae_format.Layout.block_size ~nblocks:4096 ()
  in
  let dev = Rae_block.Device.of_disk disk in
  Result.get_ok (Base.mkfs dev ~ninodes:256 ());
  (dev, Result.get_ok (Base.mount ~bugs:(Bug_registry.arm bugs) dev))

let mk_stack ?policy ?bundle_dir () =
  let dev, base = mk_base () in
  let tracer = Tracer.create () in
  Tracer.enable tracer;
  let events = Events.create ~capacity:256 () in
  let ctl =
    Controller.make ?policy ~tracer ~events ?bundle_dir ~run_id:"test-obs" ~device:dev base
  in
  (ctl, tracer, events)

(* Phases and the recovery's wall time come from one monotonic clock, so
   the phases — disjoint steps inside the recovery — never sum past it.
   Checked with the tracer's clock and with the controller's own. *)
let test_phases_within_wall () =
  let check ctl =
    ignore (Controller.create ctl (p "/a") ~mode:0o644);
    ignore (Controller.create ctl (p "/boom") ~mode:0o644);
    match Controller.last_recovery ctl with
    | None -> Alcotest.fail "expected a recovery"
    | Some r ->
        let sum = List.fold_left (fun acc ph -> Int64.add acc ph.Report.ph_ns) 0L r.Report.r_phases in
        if r.Report.r_phases = [] then Alcotest.fail "no phases recorded";
        if Int64.to_float sum /. 1e9 > r.Report.r_wall_seconds +. 1e-9 then
          Alcotest.failf "phases sum to %Ld ns, over the %.9f s wall" sum r.Report.r_wall_seconds
  in
  let ctl, _, _ = mk_stack () in
  check ctl;
  let dev, base = mk_base () in
  check (Controller.make ~device:dev base)

(* The recovery's end is read once: on a clock that steps 1,000 ns per
   read, the latency histogram and the report's wall time still agree. *)
let test_recovery_wall_read_once () =
  let dev, base = mk_base () in
  let now = ref 0L in
  let tracer =
    Tracer.create
      ~clock:(fun () ->
        now := Int64.add !now 1_000L;
        !now)
      ()
  in
  let ctl = Controller.make ~tracer ~device:dev base in
  let reg = Metrics.create () in
  Controller.register_obs reg ctl;
  ignore (Controller.create ctl (p "/a") ~mode:0o644);
  ignore (Controller.create ctl (p "/boom") ~mode:0o644);
  let wall_ns =
    match Controller.last_recovery ctl with
    | Some r -> r.Report.r_wall_seconds *. 1e9
    | None -> Alcotest.fail "expected a recovery"
  in
  match Metrics.find reg "rae_recovery_ns" with
  | Some (Metrics.Histo { count = 1; sum; _ }) ->
      if Float.abs (sum -. wall_ns) > 1. then
        Alcotest.failf "histogram %.0f ns, report %.0f ns" sum wall_ns
  | _ -> Alcotest.fail "recovery latency histogram not fed once"

let test_recovery_phases_and_spans () =
  let ctl, tracer, _ = mk_stack () in
  ignore (Controller.create ctl (p "/a") ~mode:0o644);
  ignore (Controller.mkdir ctl (p "/d") ~mode:0o755);
  ignore (Controller.create ctl (p "/boom") ~mode:0o644);
  let r =
    match Controller.last_recovery ctl with
    | Some r -> r
    | None -> Alcotest.fail "expected a recovery"
  in
  Alcotest.(check bool) "recovered" true (r.Report.r_outcome = Report.Recovered);
  let phase_names = List.map (fun ph -> ph.Report.ph_name) r.Report.r_phases in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " timed") true (List.mem expected phase_names))
    [
      "contained-reboot"; "shadow-attach"; "fd-reinstate"; "constrained-replay";
      "inflight-autonomous"; "metadata-download"; "resume";
    ];
  List.iter
    (fun ph ->
      Alcotest.(check bool) (ph.Report.ph_name ^ " non-negative") true (ph.Report.ph_ns >= 0L))
    r.Report.r_phases;
  (* The rendered report mentions the phases. *)
  let s = Format.asprintf "%a" Report.pp_recovery r in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report prints phases" true (contains "constrained-replay");
  (* And the trace exports balanced with the recovery span present. *)
  (match Tracer.validate_chrome (Tracer.to_chrome tracer) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "trace invalid after recovery: %s" msg);
  Alcotest.(check bool) "recovery span" true
    (List.exists
       (function Tracer.Begin { name = "recovery"; _ } -> true | _ -> false)
       (Tracer.events tracer))

(* Counters count up for the process's life.  With the registry rfsd
   builds (controller and server), no counter falls across a commit and a
   recovery, cold or seeded: the contained reboot swaps in a fresh journal
   and blk-mq queue, and each carries the retired instance's counts. *)
let test_register_obs_and_reset () =
  List.iter
    (fun ckpt_enabled ->
      let policy = { Controller.default_policy with Controller.ckpt_enabled } in
      let ctl, _, _ = mk_stack ~policy () in
      let reg = Metrics.create () in
      Controller.register_obs reg ctl;
      Rae_srv.Server.register_obs reg (Rae_srv.Server.create ctl);
      let counters () =
        List.filter_map
          (function name, Metrics.Counter n -> Some (name, n) | _ -> None)
          (Metrics.snapshot reg)
      in
      let last = ref (counters ()) in
      let step what f =
        f ();
        let now = counters () in
        List.iter
          (fun (name, before) ->
            match List.assoc_opt name now with
            | Some after when after >= before -> ()
            | Some after -> Alcotest.failf "%s fell from %d to %d across %s" name before after what
            | None -> Alcotest.failf "%s vanished across %s" name what)
          !last;
        last := now
      in
      step "a commit" (fun () ->
          let fd = Result.get_ok (Controller.openf ctl (p "/a") Types.flags_create) in
          ignore (Controller.pwrite ctl fd ~off:0 (String.make 10_000 'x'));
          ignore (Controller.mkdir ctl (p "/d") ~mode:0o755);
          Result.get_ok (Controller.sync ctl));
      let kind = if ckpt_enabled then "a seeded recovery" else "a cold recovery" in
      step kind (fun () -> ignore (Controller.create ctl (p "/d/boom") ~mode:0o644));
      (match Controller.last_recovery ctl with
      | Some r ->
          Alcotest.(check bool) (kind ^ " recovered") true (r.Report.r_outcome = Report.Recovered);
          Alcotest.(check bool) (kind ^ " took that path") ckpt_enabled r.Report.r_seeded
      | None -> Alcotest.failf "expected %s" kind);
      (* The recovery leaves its hand-off for the next commit. *)
      step "the hand-off's commit" (fun () -> Result.get_ok (Controller.sync ctl));
      let find name = Metrics.find reg name in
      match
        (find "rae_recoveries_total", find "rae_recovery_ns", find "base_ops_total",
         find "journal_commits_total")
      with
      | ( Some (Metrics.Counter 1),
          Some (Metrics.Histo { count = 1; _ }),
          Some (Metrics.Counter ops),
          Some (Metrics.Counter commits) )
        when ops > 0 && commits >= 2 -> ()
      | _ -> Alcotest.failf "%s: expected 1 recovery, timed, after base ops and 2+ commits" kind)
    [ false; true ]

(* ---- flight recorder ---- *)

let test_recorder_wraparound () =
  let now = ref 0 in
  let ev = Events.create ~capacity:3 (* rounds up to 4 *) ~clock:(fun () -> !now) () in
  Alcotest.(check int) "power-of-two capacity" 4 (Events.capacity ev);
  for i = 0 to 9 do
    now := i * 10;
    Events.record_op ev ~kind:"create" ~errno:"" ~lat_ns:i ~corr:i ~session:1
  done;
  Alcotest.(check int) "total" 10 (Events.total ev);
  Alcotest.(check int) "retained" 4 (Events.retained ev);
  Alcotest.(check int) "dropped" 6 (Events.dropped ev);
  let tail = Events.tail ev in
  Alcotest.(check (list int)) "oldest-first survivors" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Events.seq) tail);
  (match List.rev tail with
  | { Events.ts_ns = 90; body = Events.Op_done { corr = 9; lat_ns = 9; _ }; _ } :: _ -> ()
  | _ -> Alcotest.fail "newest slot holds the last record's payload");
  Alcotest.(check int) "n above retained clamps" 4 (List.length (Events.tail ~n:100 ev));
  Alcotest.(check (list int)) "n takes the newest" [ 8; 9 ]
    (List.map (fun e -> e.Events.seq) (Events.tail ~n:2 ev));
  Events.clear ev;
  Alcotest.(check int) "clear empties" 0 (Events.retained ev)

let test_recorder_json () =
  let ev = Events.create ~capacity:8 ~clock:(fun () -> 42) () in
  Events.record_op ev ~kind:"mkdir" ~errno:"ENOSPC" ~lat_ns:7 ~corr:3 ~session:2;
  Events.record_bug_fired ev ~id:"b-1";
  Events.record_session ev `Attach ~session:5;
  let s = Jsonx.to_string (Events.to_json ev) in
  match Jsonx.parse s with
  | Error m -> Alcotest.failf "recorder json does not reparse: %s" m
  | Ok (Jsonx.List [ op; bug; sess ]) ->
      let str k j =
        match Option.bind (Jsonx.member k j) Jsonx.to_str_opt with Some s -> s | None -> "?"
      in
      Alcotest.(check string) "op kind" "op" (str "kind" op);
      Alcotest.(check string) "op errno" "ENOSPC" (str "errno" op);
      Alcotest.(check (option int)) "op corr" (Some 3)
        (Option.bind (Jsonx.member "corr" op) Jsonx.to_int_opt);
      Alcotest.(check string) "bug kind" "bug-fired" (str "kind" bug);
      Alcotest.(check string) "bug id" "b-1" (str "bug" bug);
      Alcotest.(check string) "session kind" "session-attach" (str "kind" sess)
  | Ok _ -> Alcotest.fail "expected a three-event list"

let test_record_during_recovery () =
  let ctl, _, ev = mk_stack () in
  ignore (Controller.create ctl (p "/a") ~mode:0o644);
  ignore (Controller.create ctl (p "/boom") ~mode:0o644);
  Alcotest.(check bool) "healthy after recovery" true (Controller.health ctl = Events.Healthy);
  let bodies = List.map (fun e -> e.Events.body) (Events.tail ev) in
  let has f = List.exists f bodies in
  Alcotest.(check bool) "bug trigger recorded" true
    (has (function Events.Bug_fired { id = "test-panic" } -> true | _ -> false));
  Alcotest.(check bool) "recovery begin recorded" true
    (has (function Events.Recovery_begin _ -> true | _ -> false));
  Alcotest.(check bool) "replay phase recorded" true
    (has (function
      | Events.Span_end { name = "constrained-replay"; ns } -> ns >= 0
      | _ -> false));
  (match
     List.filter_map (function Events.Recovery_end { ok; _ } -> Some ok | _ -> None) bodies
   with
  | [ ok ] -> Alcotest.(check bool) "recovery succeeded" true ok
  | l -> Alcotest.failf "expected one recovery-end, saw %d" (List.length l));
  Alcotest.(check bool) "op completions recorded" true
    (has (function Events.Op_done _ -> true | _ -> false))

(* ---- one event stream: every layer's spans in the ring ---- *)

(* A controller (ring of 4096, fold interval 4) over a base whose "boom"
   create and second fsync panic, run through a commit with data, a
   fold, a recovery of a create, the commit four ops later that persists
   its hand-off, and a recovery of an fsync (which delegates its sync).
   Returns the ring's spans and marks as the tracer names them. *)
let span_run ?tracer ~ckpt_enabled () =
  let fsync_panic =
    { boom_panic with Bug_registry.id = "fsync-panic"; trigger = Nth_op_of_kind (Op.K_fsync, 2) }
  in
  let dev, base = mk_base ~bugs:[ boom_panic; fsync_panic ] () in
  let policy = { Controller.default_policy with ckpt_enabled; ckpt_fold_interval = 4 } in
  let ev = Events.create ~capacity:4096 () in
  let ctl = Controller.make ~policy ?tracer ~events:ev ~device:dev base in
  let fd = Result.get_ok (Controller.openf ctl (p "/f") Types.flags_create) in
  ignore (Controller.pwrite ctl fd ~off:0 (String.make 10_000 'x'));
  Result.get_ok (Controller.fsync ctl fd);
  List.iter
    (fun n -> ignore (Controller.create ctl (p n) ~mode:0o644))
    [ "/a"; "/b"; "/c"; "/d"; "/boom" ];
  (* Four more ops: the fourth commits the hand-off and re-cuts the
     checkpoint, so the fsync's recovery seeds too. *)
  List.iter
    (fun n -> ignore (Controller.create ctl (p n) ~mode:0o644))
    [ "/e"; "/g"; "/h"; "/i" ];
  Result.get_ok (Controller.fsync ctl fd);
  (match Controller.recoveries ctl with
  | [ a; b ] ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "recovered" true (r.Report.r_outcome = Report.Recovered);
          Alcotest.(check bool) "seeded" ckpt_enabled r.Report.r_seeded)
        [ a; b ];
      Alcotest.(check bool) "second delegated its sync" true b.Report.r_delegated_sync
  | l -> Alcotest.failf "expected 2 recoveries, saw %d" (List.length l));
  Alcotest.(check int) "nothing dropped" 0 (Events.dropped ev);
  List.filter_map
    (fun e ->
      match e.Events.body with
      | Events.Span_begin { name } -> Some ("B " ^ name)
      | Span_end { name; ns } ->
          if ns < 0 then Alcotest.failf "%s lasted %d ns" name ns;
          Some ("E " ^ name)
      | Recovery_begin { trigger } -> Some ("i detect:" ^ trigger)
      | Ckpt_fallback { reason } -> Some ("i ckpt-fallback:" ^ reason)
      | _ -> None)
    (Events.tail ev)

(* rfsd's shape, no tracer: the ring alone holds balanced span pairs for
   every layer and every phase, cold and seeded. *)
let test_spans_balanced_without_tracer () =
  List.iter
    (fun (ckpt_enabled, own) ->
      let marks = span_run ~ckpt_enabled () in
      let close stack m =
        match (String.sub m 0 2, stack) with
        | "B ", _ -> String.sub m 2 (String.length m - 2) :: stack
        | "E ", top :: rest when "E " ^ top = m -> rest
        | "E ", _ -> Alcotest.failf "unbalanced %s" m
        | _ -> stack
      in
      Alcotest.(check (list string)) "all closed" [] (List.fold_left close [] marks);
      List.iter
        (fun name -> if not (List.mem ("B " ^ name) marks) then Alcotest.failf "no %s span" name)
        ([ "base.commit"; "blkmq.destage"; "journal.replay"; "recovery"; "contained-reboot";
           "constrained-replay"; "inflight-autonomous"; "metadata-download"; "resume";
           "delegated-sync" ] @ own))
    [
      (false, [ "shadow-attach"; "fsck"; "fd-reinstate" ]);
      (true, [ "ckpt-cut"; "ckpt-fold"; "seed" ]);
    ]

(* A tracer is a view of the ring: its begins, ends and instants, in
   order, are the ring's spans, recovery begins and fallbacks. *)
let test_tracer_fed_from_ring () =
  List.iter
    (fun ckpt_enabled ->
      let tracer = Tracer.create () in
      Tracer.enable tracer;
      let ring = span_run ~tracer ~ckpt_enabled () in
      let traced =
        List.map
          (function
            | Tracer.Begin { name; _ } -> "B " ^ name
            | End { name; _ } -> "E " ^ name
            | Instant { name; _ } -> "i " ^ name)
          (Tracer.events tracer)
      in
      Alcotest.(check (list string)) "tracer = ring" ring traced)
    [ false; true ]

(* ---- black-box bundles ---- *)

let test_bundle_on_recovery () =
  let dir = tmpdir () in
  let ctl, _, _ = mk_stack ~bundle_dir:dir () in
  ignore (Controller.create ctl (p "/a") ~mode:0o644);
  Alcotest.(check (list Alcotest.string)) "no bundle before recovery" []
    (Controller.bundles ctl);
  ignore (Controller.create ctl (p "/boom") ~mode:0o644);
  match Controller.bundles ctl with
  | [ path ] -> (
      match Blackbox.check_file path with
      | Error vs -> Alcotest.failf "bundle invalid: %s" (String.concat "; " vs)
      | Ok s ->
          Alcotest.(check string) "schema" Blackbox.schema_version s.Blackbox.s_schema;
          Alcotest.(check string) "kind" Blackbox.kind_recovery s.Blackbox.s_kind;
          Alcotest.(check int) "seq" 1 s.Blackbox.s_seq;
          Alcotest.(check string) "health" "OK" s.Blackbox.s_health;
          Alcotest.(check bool) "flight-recorder tail embedded" true (s.Blackbox.s_events > 0);
          Alcotest.(check bool) "trigger named" true (s.Blackbox.s_trigger <> None))
  | l -> Alcotest.failf "expected exactly one bundle, got %d" (List.length l)

let test_failstop_bundle () =
  (* The unrecoverable-image scenario from test_core, observed through
     the black box: corrupt the on-disk root so fsck refuses S0, and the
     failed recovery must leave a FAILSTOP bundle plus degradation
     events in the recorder. *)
  let dir = tmpdir () in
  let disk =
    Rae_block.Disk.create ~latency:Rae_block.Disk.zero_latency
      ~block_size:Rae_format.Layout.block_size ~nblocks:4096 ()
  in
  let dev = Rae_block.Device.of_disk disk in
  Result.get_ok (Base.mkfs dev ~ninodes:256 ());
  let base = Result.get_ok (Base.mount dev) in
  let events = Events.create ~capacity:256 () in
  let ctl = Controller.make ~events ~bundle_dir:dir ~run_id:"test-failstop" ~device:dev base in
  ignore (Controller.create ctl (p "/x") ~mode:0o644);
  ignore (Controller.sync ctl);
  let g =
    (Result.get_ok (Rae_format.Reader.attach (fun blk -> Rae_block.Disk.read disk blk)))
      .Rae_format.Reader.sb
      .Rae_format.Superblock.geometry
  in
  Rae_block.Disk.corrupt_byte disk ~block:g.Rae_format.Layout.data_start ~offset:4 (fun _ -> '\000');
  Rae_block.Disk.corrupt_byte disk ~block:g.Rae_format.Layout.data_start ~offset:5 (fun _ -> '\000');
  ignore (Result.get_ok (Base.contained_reboot (Controller.base ctl)));
  (match Controller.lookup ctl (p "/x") with
  | Error Errno.EIO -> ()
  | _ -> Alcotest.fail "degraded controller must answer EIO");
  Alcotest.(check bool) "health FAILSTOP" true (Controller.health ctl = Events.Failstop);
  (match Controller.bundles ctl with
  | [ path ] -> (
      match Blackbox.check_file path with
      | Error vs -> Alcotest.failf "fail-stop bundle invalid: %s" (String.concat "; " vs)
      | Ok s ->
          Alcotest.(check string) "kind" Blackbox.kind_failstop s.Blackbox.s_kind;
          Alcotest.(check string) "health" "FAILSTOP" s.Blackbox.s_health)
  | l -> Alcotest.failf "expected exactly one bundle, got %d" (List.length l));
  let bodies = List.map (fun e -> e.Events.body) (Events.tail events) in
  Alcotest.(check bool) "degradation recorded" true
    (List.exists (function Events.Degradation _ -> true | _ -> false) bodies);
  Alcotest.(check bool) "failed recovery-end recorded" true
    (List.exists (function Events.Recovery_end { ok = false; _ } -> true | _ -> false) bodies)

(* The recovery span ends before the bundle is written: a recovered
   bundle and a fail-stop bundle each hold the recovery's span-end, the
   ring's spans stay balanced with a tracer attached, and the tracer's
   stack is empty afterwards. *)
let test_bundles_hold_recovery_span_end () =
  let check_bundle ctl events tracer ~kind =
    (match Controller.bundles ctl with
    | [ path ] ->
        let json = Jsonx.parse_exn (Result.get_ok (Blackbox.read_file path)) in
        let span_ends =
          List.filter
            (fun e ->
              Jsonx.(Option.bind (member "kind" e) to_str_opt) = Some "span-end"
              && Jsonx.(Option.bind (member "span" e) to_str_opt) = Some "recovery")
            (Option.value ~default:[] Jsonx.(Option.bind (member "events" json) to_list_opt))
        in
        if List.length span_ends <> 1 then
          Alcotest.failf "%s bundle holds %d recovery span-ends" kind (List.length span_ends)
    | l -> Alcotest.failf "expected exactly one %s bundle, got %d" kind (List.length l));
    let depth =
      List.fold_left
        (fun depth e ->
          match e.Events.body with
          | Events.Span_begin _ -> depth + 1
          | Span_end { name; _ } ->
              if depth = 0 then Alcotest.failf "%s: unbalanced end of %s" kind name;
              depth - 1
          | _ -> depth)
        0 (Events.tail events)
    in
    Alcotest.(check int) (kind ^ ": ring spans balanced") 0 depth;
    Alcotest.(check int) (kind ^ ": tracer stack empty") 0 (Tracer.depth tracer)
  in
  (* Recovered. *)
  let ctl, tracer, events = mk_stack ~bundle_dir:(tmpdir ()) () in
  ignore (Controller.create ctl (p "/a") ~mode:0o644);
  ignore (Controller.create ctl (p "/boom") ~mode:0o644);
  check_bundle ctl events tracer ~kind:"recovery";
  (* Fail-stop: fsck refuses a corrupted root, as in [test_failstop_bundle]. *)
  let disk =
    Rae_block.Disk.create ~latency:Rae_block.Disk.zero_latency
      ~block_size:Rae_format.Layout.block_size ~nblocks:4096 ()
  in
  let dev = Rae_block.Device.of_disk disk in
  Result.get_ok (Base.mkfs dev ~ninodes:256 ());
  let base = Result.get_ok (Base.mount dev) in
  let tracer = Tracer.create () in
  Tracer.enable tracer;
  let events = Events.create ~capacity:256 () in
  let ctl =
    Controller.make ~tracer ~events ~bundle_dir:(tmpdir ()) ~run_id:"test-span-end" ~device:dev base
  in
  ignore (Controller.create ctl (p "/x") ~mode:0o644);
  ignore (Controller.sync ctl);
  let g =
    (Result.get_ok (Rae_format.Reader.attach (fun blk -> Rae_block.Disk.read disk blk)))
      .Rae_format.Reader.sb
      .Rae_format.Superblock.geometry
  in
  Rae_block.Disk.corrupt_byte disk ~block:g.Rae_format.Layout.data_start ~offset:4 (fun _ -> '\000');
  Rae_block.Disk.corrupt_byte disk ~block:g.Rae_format.Layout.data_start ~offset:5 (fun _ -> '\000');
  ignore (Result.get_ok (Base.contained_reboot (Controller.base ctl)));
  ignore (Controller.lookup ctl (p "/x"));
  check_bundle ctl events tracer ~kind:"fail-stop"

let test_blackbox_check_rejects () =
  (match Blackbox.check (Jsonx.Obj [ ("schema", Jsonx.Str "bogus/9") ]) with
  | Ok _ -> Alcotest.fail "bogus bundle must not validate"
  | Error vs ->
      Alcotest.(check bool) "several violations reported" true (List.length vs >= 2));
  match Blackbox.check (Jsonx.Int 3) with
  | Ok _ -> Alcotest.fail "non-object must not validate"
  | Error _ -> ()

let test_blackbox_diff () =
  let a =
    Jsonx.Obj
      [ ("x", Jsonx.Int 1); ("nest", Jsonx.Obj [ ("z", Jsonx.Str "same") ]);
        ("l", Jsonx.List [ Jsonx.Int 1; Jsonx.Int 2 ]) ]
  in
  let b =
    Jsonx.Obj
      [ ("x", Jsonx.Int 2); ("nest", Jsonx.Obj [ ("z", Jsonx.Str "same") ]);
        ("l", Jsonx.List [ Jsonx.Int 1; Jsonx.Int 3 ]) ]
  in
  Alcotest.(check (list string)) "self-diff empty" [] (Blackbox.diff a a);
  let lines = Blackbox.diff a b in
  Alcotest.(check int) "one line per differing leaf" 2 (List.length lines);
  Alcotest.(check bool) "names the scalar path" true
    (List.exists (fun l -> has_sub l "x") lines)

(* ---- tracer ring cap ---- *)

let test_tracer_ring_cap () =
  let now = ref 0L in
  let t = Tracer.create ~clock:(fun () -> !now) ~max_events:16 () in
  Tracer.enable t;
  for i = 1 to 40 do
    now := Int64.of_int (i * 10);
    Tracer.instant t "tick"
  done;
  Alcotest.(check int) "capped at max_events" 16 (List.length (Tracer.events t));
  Alcotest.(check int) "overflow counted" 24 (Tracer.dropped t);
  (* A span whose B was overwritten must not leave a dangling E. *)
  Tracer.span_begin t "doomed";
  for i = 21 to 40 do
    now := Int64.of_int (i * 10);
    Tracer.instant t "tick"
  done;
  Tracer.span_end t;
  match Tracer.validate_chrome (Tracer.to_chrome t) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "capped trace must stay exportable: %s" m

(* ---- JSON: grammar round-trip and metrics snapshots ---- *)

let gen_json =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Jsonx.Null;
               map (fun b -> Jsonx.Bool b) bool;
               map (fun i -> Jsonx.Int i) (int_range (-1_000_000) 1_000_000);
               map (fun s -> Jsonx.Str s) (string_size ~gen:printable (int_bound 12));
             ]
         in
         if n <= 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun l -> Jsonx.List l) (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun l -> Jsonx.Obj l)
                 (list_size (int_bound 4)
                    (pair (string_size ~gen:printable (int_bound 8)) (self (n / 2))));
             ])

let prop_jsonx_roundtrip =
  QCheck2.Test.make ~name:"jsonx print/parse round-trip (compact and pretty)" ~count:300
    ~print:(fun j -> Jsonx.to_string j)
    gen_json
    (fun j ->
      Jsonx.parse (Jsonx.to_string j) = Ok j
      && Jsonx.parse (Jsonx.to_string ~pretty:true j) = Ok j)

let test_jsonx_errors () =
  let bad s = match Jsonx.parse s with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "bare brace" true (bad "{");
  Alcotest.(check bool) "missing value" true (bad "{\"a\":}");
  Alcotest.(check bool) "unterminated list" true (bad "[1,2");
  Alcotest.(check bool) "trailing garbage" true (bad "1 x");
  Alcotest.(check bool) "nan prints as null" true (Jsonx.to_string (Jsonx.Float Float.nan) = "null");
  Alcotest.(check bool) "float survives" true
    (Jsonx.parse (Jsonx.to_string (Jsonx.Float 1.5)) = Ok (Jsonx.Float 1.5))

let test_metrics_json_roundtrip () =
  let reg = Metrics.create () in
  Metrics.register_counter reg ~help:"ops" "m_ops" (fun () -> 42);
  Metrics.register_gauge reg "m_depth" (fun () -> 1.5);
  let h = Metrics.histogram () in
  Metrics.observe h 100L;
  Metrics.observe h 10_000L;
  Metrics.register_histogram reg "m_lat" h;
  (* Bundle tools read the snapshot back through Jsonx. *)
  match Jsonx.parse (Metrics.to_json reg) with
  | Error m -> Alcotest.failf "metrics snapshot does not reparse: %s" m
  | Ok j ->
      let field name key = Option.bind (Jsonx.member name j) (Jsonx.member key) in
      let str name key = Option.bind (field name key) Jsonx.to_str_opt in
      let int name key = Option.bind (field name key) Jsonx.to_int_opt in
      let num name key = Option.bind (field name key) Jsonx.to_float_opt in
      Alcotest.(check (option int)) "entries" (Some 3)
        (Option.map List.length (Jsonx.to_obj_opt j));
      Alcotest.(check (option string)) "counter type" (Some "counter") (str "m_ops" "type");
      Alcotest.(check (option int)) "counter value" (Some 42) (int "m_ops" "value");
      Alcotest.(check (option string)) "gauge type" (Some "gauge") (str "m_depth" "type");
      Alcotest.(check (option (float 0.))) "gauge value" (Some 1.5) (num "m_depth" "value");
      Alcotest.(check (option string)) "histogram type" (Some "histogram") (str "m_lat" "type");
      Alcotest.(check (option int)) "histogram count" (Some 2) (int "m_lat" "count");
      Alcotest.(check (option (float 0.))) "histogram sum" (Some 10_100.) (num "m_lat" "sum");
      Alcotest.(check (option (float 0.))) "histogram max" (Some 10_000.) (num "m_lat" "max")

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          q prop_counts_conserved;
          q prop_quantiles_ordered;
          q prop_quantile_monotone_in_q;
          q prop_quantile_bracketed;
        ] );
      ( "registry",
        [
          Alcotest.test_case "snapshot/reset/replace" `Quick test_registry_snapshot_replace;
          Alcotest.test_case "prometheus" `Quick test_prometheus_export;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "span basics" `Quick test_span_basics;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_tracer_records_nothing;
          Alcotest.test_case "monotone clamp" `Quick test_monotone_clamp;
          q prop_span_nesting;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "open spans closed" `Quick test_chrome_open_spans_closed_at_export;
          Alcotest.test_case "rejects malformed" `Quick test_chrome_rejects_malformed;
          Alcotest.test_case "ring cap drops oldest, stays exportable" `Quick
            test_tracer_ring_cap;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "wraparound" `Quick test_recorder_wraparound;
          Alcotest.test_case "event json" `Quick test_recorder_json;
          Alcotest.test_case "records through a recovery" `Quick test_record_during_recovery;
          Alcotest.test_case "spans balance, no tracer" `Quick test_spans_balanced_without_tracer;
          Alcotest.test_case "tracer fed from the ring" `Quick test_tracer_fed_from_ring;
        ] );
      ( "blackbox",
        [
          Alcotest.test_case "recovery emits a valid bundle" `Quick test_bundle_on_recovery;
          Alcotest.test_case "fail-stop emits a FAILSTOP bundle" `Quick test_failstop_bundle;
          Alcotest.test_case "bundles hold the recovery's span-end" `Quick
            test_bundles_hold_recovery_span_end;
          Alcotest.test_case "checker rejects non-bundles" `Quick test_blackbox_check_rejects;
          Alcotest.test_case "structural diff" `Quick test_blackbox_diff;
        ] );
      ( "json",
        [
          q prop_jsonx_roundtrip;
          Alcotest.test_case "parser rejects malformed" `Quick test_jsonx_errors;
          Alcotest.test_case "metrics snapshot round-trip" `Quick test_metrics_json_roundtrip;
        ] );
      ( "stack",
        [
          Alcotest.test_case "recovery phases + spans" `Quick test_recovery_phases_and_spans;
          Alcotest.test_case "phases within the wall" `Quick test_phases_within_wall;
          Alcotest.test_case "recovery wall read once" `Quick test_recovery_wall_read_once;
          Alcotest.test_case "register_obs + reset_stats" `Quick test_register_obs_and_reset;
        ] );
    ]
