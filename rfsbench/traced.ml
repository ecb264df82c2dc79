(* The traced run (--trace 1): a per-layer ledger of the serving stack.

   The stream (set-up, warm-up, then [rounds] timed requests per session)
   is generated once from the seed and predicted by the spec.  Five arms
   replay it, interleaved in short chunks:

   - the shipped daemon over its socket: counter diffs, client latency;
   - rfsd's stack rebuilt in-process from the same public defaults, with
     request bytes fed straight into Server.feed/step/output:
     1. untraced with rfsd's own (CPU-time) clocks: the in-process
        baseline the daemon's latency is compared with;
     2. untraced with the benchmark's clock on the Tracer and Server
        hooks: the baseline for the tracing overhead;
     3. traced: every Server call and Device.t closure timed, the
        controller handed an enabled Tracer on the benchmark's clock,
        the Server given the same clock (its two reads bracket each
        Controller.exec_for), GC pauses from runtime_events;
   - a bare Base.exec (no bug armed, no triggers).

   A round feeds one request per session, steps once and drains both
   outputs, as the daemon does when both requests arrive in one select
   wakeup.  Time is split into nested slices: Server calls > controller
   exec > tracer spans; a layer's self time is its slices minus the child
   slices they cover, so the layers' self times sum to the Server calls.
   Device closures and GC pauses nest inside other slices: they are
   reported but not added into the sum. *)

open Rae_vfs
module Wire = Rae_srv.Wire
module Server = Rae_srv.Server
module Controller = Rae_core.Controller
module Checkpoint = Rae_core.Checkpoint
module Report = Rae_core.Report
module Base = Rae_basefs.Base
module Tracer = Rae_obs.Tracer

(* Timed rounds (one request per session each) per second of --seconds,
   up to ten seconds' worth. *)
let rounds_per_second = 2000
let max_rounds = 20000

(* ---- the stream ---- *)

type stream = {
  setup : Gen.gop array array;  (* per session *)
  ops : Gen.gop array array;  (* per session: warm-up, then timed *)
  warm : int;
  final : (string * string) list;  (* the spec's tree after the whole stream *)
  user_bytes : int;  (* bytes the timed requests write *)
}

let materialize workload ~seed ~rounds =
  let oracle = Oracle.create ~sessions:Daemon.sessions in
  let gens = Array.init Daemon.sessions (fun session -> Gen.create workload ~seed ~session) in
  let setup = Array.map (fun g -> Array.of_list (Gen.setup g)) gens in
  Array.iteri (fun s ops -> Array.iter (fun g -> ignore (Oracle.predict oracle ~session:s g)) ops) setup;
  let warm = Measured.warmup in
  let dummy = Gen.{ op = Op.Sync; bind = -1; trigger = false } in
  let ops = Array.init Daemon.sessions (fun _ -> Array.make (warm + rounds) dummy) in
  let user_bytes = ref 0 in
  for i = 0 to warm + rounds - 1 do
    if i = warm then Gen.set_triggers gens.(0) (Some (Measured.trigger_gap workload));
    Array.iteri
      (fun s g ->
        let g = Gen.next g in
        (match g.Gen.op with Op.Pwrite (_, _, d) when i >= warm -> user_bytes := !user_bytes + String.length d | _ -> ());
        ignore (Oracle.predict oracle ~session:s g);
        ops.(s).(i) <- g)
      gens
  done;
  { setup; ops; warm; final = Oracle.tree (Rae_specfs.Spec.exec oracle.Oracle.spec); user_bytes = !user_bytes }

(* ---- slices ---- *)

type layer = Srv | Core | Basefs | Block | Journal | Device | Harness

let layer_index = function
  | Srv -> 0
  | Core -> 1
  | Basefs -> 2
  | Block -> 3
  | Journal -> 4
  | Device -> 5
  | Harness -> 6

let nlayers = 7

let span_layer = function
  | "base.commit" -> Basefs
  | "journal.replay" -> Journal
  | "blkmq.destage" -> Block
  | _ -> Core

(* One round's slices, for attributing device time and GC pauses to the
   innermost slice that covers them. *)
type slices = { mutable t0 : int64 array; mutable t1 : int64 array; mutable lay : layer array; mutable n : int }

let slices () = { t0 = Array.make 256 0L; t1 = Array.make 256 0L; lay = Array.make 256 Harness; n = 0 }

let slice s t0 t1 lay =
  if s.n = Array.length s.t0 then begin
    let grow a d = Array.append a (Array.make (Array.length a) d) in
    s.t0 <- grow s.t0 0L;
    s.t1 <- grow s.t1 0L;
    s.lay <- grow s.lay Harness
  end;
  s.t0.(s.n) <- t0;
  s.t1.(s.n) <- t1;
  s.lay.(s.n) <- lay;
  s.n <- s.n + 1

let innermost s t =
  let best = ref (-1) in
  for i = 0 to s.n - 1 do
    if s.t0.(i) <= t && t < s.t1.(i) then
      match !best with
      | -1 -> best := i
      | b -> if s.t0.(i) > s.t0.(b) || (s.t0.(i) = s.t0.(b) && s.t1.(i) < s.t1.(b)) then best := i
  done;
  if !best < 0 then None else Some s.lay.(!best)

(* ---- the in-process stack, as rfsd builds it ---- *)

type stack = {
  server : Server.t;
  ctl : Controller.t;
  raw : Rae_block.Device.t;
  conns : int array;
  slots : int array array;
  enc : Wire.encoder;
  tx : Buffer.t;
  mutable req : int;
}

let build ?wrap ?tracer ?now () =
  let raw =
    Rae_block.Device.of_disk
      (Rae_block.Disk.create ~latency:Rae_block.Disk.zero_latency ~block_size:Rae_format.Layout.block_size
         ~nblocks:8192 ())
  in
  let dev = match wrap with Some f -> f raw | None -> raw in
  (match Base.mkfs dev ~ninodes:1024 () with Ok () -> () | Error m -> failwith m);
  let spec = Option.get (Rae_basefs.Bug_registry.find Daemon.bug) in
  let bugs = Rae_basefs.Bug_registry.arm ~rng:(Rae_util.Rng.create 42L) [ spec ] in
  let base = match Base.mount ~bugs dev with Ok b -> b | Error m -> failwith m in
  let policy = { Controller.default_policy with Controller.ckpt_enabled = true } in
  let tracer = match tracer with Some t -> t | None -> Tracer.create ~max_events:65536 () in
  let events = Rae_obs.Events.create ~capacity:4096 () in
  let ctl = Controller.make ~policy ~tracer ~events ~run_id:"rfsbench" ~device:dev base in
  let server = Server.create ?now ctl in
  let reg = Rae_obs.Metrics.create () in
  Controller.register_obs reg ctl;
  Server.register_obs reg server;
  Server.set_metrics_source server (fun () -> Rae_obs.Metrics.to_prometheus reg);
  let st =
    {
      server;
      ctl;
      raw;
      conns = Array.init Daemon.sessions (fun _ -> Server.open_conn server);
      slots = Array.init Daemon.sessions (fun _ -> Array.make Gen.nslots (-1));
      enc = Wire.encoder ();
      tx = Buffer.create 256;
      req = 0;
    }
  in
  Array.iter
    (fun cid ->
      Buffer.clear st.tx;
      Wire.encode_into st.enc (Wire.Hello { version = Wire.protocol_version }) st.tx;
      Server.feed server cid (Buffer.contents st.tx);
      ignore (Server.output server cid))
    st.conns;
  st

let encode st s (g : Gen.gop) =
  st.req <- st.req + 1;
  Buffer.clear st.tx;
  Wire.encode_into st.enc (Wire.Op_req { req = st.req; corr = 0; op = Gen.subst st.slots.(s) g.Gen.op }) st.tx;
  Buffer.contents st.tx

(* The op outcome in a session's output, binding its slot; [notes]
   counts the Note_recovered frames that ride along. *)
let reply st s (g : Gen.gop) out ~notes =
  let buf = Bytes.unsafe_of_string out in
  let rec go pos found =
    if pos >= Bytes.length buf then found
    else
      match Wire.decode buf ~pos ~len:(Bytes.length buf - pos) with
      | Wire.Frame (Wire.Op_reply { outcome; _ }, n) -> go (pos + n) (Some outcome)
      | Wire.Frame (Wire.Note_recovered _, n) ->
          incr notes;
          go (pos + n) found
      | Wire.Frame (f, n) ->
          Daemon.miss (Format.asprintf "in-process session %d: unexpected %a" s Wire.pp_frame f);
          go (pos + n) found
      | Wire.Need_more | Wire.Fail _ -> Daemon.broken "in-process session %d: undecodable output" s
  in
  let outcome = match go 0 None with Some o -> o | None -> Daemon.broken "in-process session %d: no reply" s in
  (match outcome with Ok (Op.Fd v) when g.Gen.bind >= 0 -> st.slots.(s).(g.Gen.bind) <- v | _ -> ());
  outcome

(* Set-up and warm-up, untimed: one session's set-up list at a time,
   then warm-up rounds. *)
let prepare st (stream : stream) =
  let notes = ref 0 in
  Array.iteri
    (fun s ops ->
      Array.iter
        (fun g ->
          Server.feed st.server st.conns.(s) (encode st s g);
          ignore (Server.step st.server);
          ignore (reply st s g (Server.output st.server st.conns.(s)) ~notes))
        ops)
    stream.setup;
  for i = 0 to stream.warm - 1 do
    let gs = Array.map (fun ops -> ops.(i)) stream.ops in
    Array.iteri (fun s g -> Server.feed st.server st.conns.(s) (encode st s g)) gs;
    ignore (Server.step st.server);
    Array.iteri (fun s g -> ignore (reply st s g (Server.output st.server st.conns.(s)) ~notes)) gs
  done

(* Only an Open's reply is needed to keep going (it binds a slot); a
   round with a trigger is decoded whole, for its Note_recovered frames.
   Decoding every reply would put the harness's allocations into the
   timed passes' GC work: the daemon arm already checks every reply. *)
let collect st (gs : Gen.gop array) outs ~notes =
  let whole = Array.exists (fun g -> g.Gen.trigger) gs in
  Array.iteri (fun s g -> if whole || g.Gen.bind >= 0 then ignore (reply st s g outs.(s) ~notes)) gs

(* ---- the arms ----

   Each arm builds its own stack, runs set-up and warm-up, and then
   replays timed rounds [lo, hi) of the stream when asked.  The run
   interleaves the arms in short chunks: the host's speed drifts over
   seconds, and interleaving makes that drift weigh on every arm alike. *)

(* The shipped daemon, over its socket: counter diffs and the client's
   mean latency for the same stream. *)
let daemon_arm ~rfsd ~run_dir workload ~seed =
  let h = Daemon.start ~rfsd ~sock:(Measured.sock_path run_dir 0) workload ~seed ~warmup:Measured.warmup in
  let before = Daemon.metrics h in
  Gen.set_triggers h.Daemon.gens.(0) (Some (Measured.trigger_gap workload));
  let lat = Stats.samples () in
  let go lo hi =
    let left = Array.make Daemon.sessions (hi - lo) in
    Daemon.drive h
      ~source:(fun c ->
        let s = c.Daemon.sid in
        if left.(s) = 0 then None
        else begin
          left.(s) <- left.(s) - 1;
          Some (Gen.next h.Daemon.gens.(s))
        end)
      ~on_reply:(fun _ g lat_ns _ -> if not g.Gen.trigger then Stats.add lat (Int64.to_float lat_ns))
  in
  let finish () =
    let after = Daemon.metrics h in
    Daemon.stop h;
    (Stats.mean lat /. 1e3, before, after)
  in
  (go, finish)

type untraced = { service_ns : float; round_ns : float; minor_words : float; promoted_words : float; major_cycles : int }

(* [bench_clock]: give the (disabled) Tracer and the Server the
   benchmark's clock instead of rfsd's CPU-time defaults, so that the
   traced arm differs from this one only by tracing. *)
let untraced_arm stream ~bench_clock =
  let st =
    if bench_clock then build ~tracer:(Tracer.create ~clock:Stats.now ~max_events:65536 ()) ~now:Stats.now ()
    else build ()
  in
  prepare st stream;
  let reqs = Array.make Daemon.sessions "" and outs = Array.make Daemon.sessions "" in
  let total = ref 0L and plain = ref 0L and nplain = ref 0 and rounds = ref 0 in
  let minor = ref 0. and promoted = ref 0. and majors = ref 0 and notes = ref 0 in
  let go lo hi =
    let gc0 = Gc.quick_stat () in
    for i = lo to hi - 1 do
      let gs = Array.map (fun ops -> ops.(i)) stream.ops in
      Array.iteri (fun s g -> reqs.(s) <- encode st s g) gs;
      let t0 = Stats.now () in
      Server.feed st.server st.conns.(0) reqs.(0);
      Server.feed st.server st.conns.(1) reqs.(1);
      ignore (Server.step st.server);
      outs.(0) <- Server.output st.server st.conns.(0);
      outs.(1) <- Server.output st.server st.conns.(1);
      let d = Int64.sub (Stats.now ()) t0 in
      total := Int64.add !total d;
      incr rounds;
      if not (gs.(0).Gen.trigger || gs.(1).Gen.trigger) then begin
        plain := Int64.add !plain d;
        incr nplain
      end;
      collect st gs outs ~notes
    done;
    let gc1 = Gc.quick_stat () in
    minor := !minor +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted := !promoted +. gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    majors := !majors + gc1.Gc.major_collections - gc0.Gc.major_collections
  in
  let finish () =
    let ops = float_of_int (Daemon.sessions * !rounds) in
    {
      service_ns = Int64.to_float !total /. ops;
      round_ns = Stats.ratio (Int64.to_float !plain) (float_of_int !nplain);
      minor_words = !minor /. ops;
      promoted_words = !promoted /. ops;
      major_cycles = !majors;
    }
  in
  (go, finish)

type traced = {
  t_ops : float;
  t_service : float;  (* ns: the Server calls plus the gaps between them *)
  t_calls : float;  (* ns in Server calls *)
  self : float array;  (* ns per layer *)
  gc : float array;  (* pause ns per innermost layer *)
  exec : float;  (* controller exec minus recovery *)
  cut : float;
  fold : float;
  commit : float;  (* hot-path group commits *)
  device : float;
  dev_reads : int;
  dev_writes : int;
  dev_flushes : int;
  recovery : float;
  phases : (string * float) list;
  replay : float;  (* journal.replay inside contained-reboot *)
  download_commit : float;  (* base.commit inside metadata-download *)
  reports : Report.recovery list;
  served : int;
  seeded : int;
  commits_fsync : int;
  jcommits : int;
  jblocks : int;
  submitted : int;
  merged : int;
}

let traced_arm stream =
  let sl = slices () in
  let dev_ns = ref 0L and reads = ref 0 and writes = ref 0 and flushes = ref 0 in
  let timed f cnt =
    let t0 = Stats.now () in
    let r = f () in
    let t1 = Stats.now () in
    slice sl t0 t1 Device;
    dev_ns := Int64.add !dev_ns (Int64.sub t1 t0);
    incr cnt;
    r
  in
  let wrap (d : Rae_block.Device.t) =
    {
      d with
      Rae_block.Device.dev_read = (fun b -> timed (fun () -> d.Rae_block.Device.dev_read b) reads);
      dev_write = (fun b x -> timed (fun () -> d.Rae_block.Device.dev_write b x) writes);
      dev_flush = (fun () -> timed d.Rae_block.Device.dev_flush flushes);
    }
  in
  let tracer = Tracer.create ~clock:Stats.now () in
  Tracer.enable tracer;
  (* The Server reads its clock exactly twice per dispatch, around
     Controller.exec_for. *)
  let exec_ns = ref 0L and pair_open = ref None in
  let now () =
    let t = Stats.now () in
    (match !pair_open with
    | None -> pair_open := Some t
    | Some t0 ->
        pair_open := None;
        slice sl t0 t Core;
        exec_ns := Int64.add !exec_ns (Int64.sub t t0));
    t
  in
  let st = build ~wrap ~tracer ~now () in
  prepare st stream;
  Tracer.clear tracer;
  let seeded () = match Controller.checkpoint_stats st.ctl with Some c -> c.Checkpoint.seeded | None -> 0 in
  let cs0 = Controller.stats st.ctl and ss0 = Server.stats st.server and seeded0 = seeded () in
  let nrec0 = List.length (Controller.recoveries st.ctl) in
  exec_ns := 0L;
  dev_ns := 0L;
  reads := 0;
  writes := 0;
  flushes := 0;
  (* GC pauses: EV_MAJOR covers the slices (and any minor inside them);
     a minor outside a major slice is its own pause.  Events are
     collected only while this arm runs. *)
  Runtime_events.start ();
  Runtime_events.pause ();
  let cursor = Runtime_events.create_cursor None in
  let pauses = ref [] and major0 = ref None and minor0 = ref 0L in
  let ts = Runtime_events.Timestamp.to_int64 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        match phase with
        | Runtime_events.EV_MAJOR -> major0 := Some (ts t)
        | Runtime_events.EV_MINOR -> minor0 := ts t
        | _ -> ())
      ~runtime_end:(fun _ t phase ->
        match (phase, !major0) with
        | Runtime_events.EV_MAJOR, Some t0 ->
            pauses := (t0, ts t) :: !pauses;
            major0 := None
        | Runtime_events.EV_MINOR, None -> pauses := (!minor0, ts t) :: !pauses
        | _ -> ())
      ()
  in
  let self = Array.make nlayers 0. and gc = Array.make nlayers 0. in
  let cut = ref 0. and fold = ref 0. and commit = ref 0. and commits_fsync = ref 0 in
  let recovery = ref 0. and replay = ref 0. and download_commit = ref 0. in
  let phases = Hashtbl.create 16 in
  let calls = ref 0. and service = ref 0. and rounds = ref 0 in
  let stack = ref [] in
  (* Close a tracer span: its slice, and the ledger rows it feeds. *)
  let close name t0 t1 ~fsync =
    slice sl t0 t1 (span_layer name);
    let d = Int64.to_float (Int64.sub t1 t0) in
    let inside n = List.exists (fun (m, _) -> m = n) !stack in
    let in_recovery = inside "recovery" in
    match name with
    | "recovery" -> recovery := !recovery +. d
    | "journal.replay" -> if in_recovery then replay := !replay +. d
    | "base.commit" ->
        if inside "metadata-download" then download_commit := !download_commit +. d
        else if not in_recovery then begin
          commit := !commit +. d;
          if fsync then incr commits_fsync
        end
    | "ckpt-cut" when not in_recovery -> cut := !cut +. d
    | "ckpt-fold" when not in_recovery -> fold := !fold +. d
    | _ -> (
        match !stack with
        | ("recovery", _) :: _ when List.mem name Controller.phase_names ->
            Hashtbl.replace phases name (d +. Option.value ~default:0. (Hashtbl.find_opt phases name))
        | _ -> ())
  in
  let reqs = Array.make Daemon.sessions "" and outs = Array.make Daemon.sessions "" in
  let notes = ref 0 in
  let call t0 = slice sl t0 (Stats.now ()) Srv in
  (* The journal and blk-mq instances are replaced by every contained
     reboot, restarting their counters: a drop within a round is a reset. *)
  let jcommits = ref 0 and jblocks = ref 0 and submitted = ref 0 and merged = ref 0 in
  let base = Controller.base st.ctl in
  let counts () =
    let j = Base.journal_stats base and q = Base.mq_stats base in
    Rae_journal.Journal.[| j.commits; j.blocks_logged; q.Rae_block.Blkmq.submitted; q.Rae_block.Blkmq.merged |]
  in
  let add acc before after = acc := !acc + if after >= before then after - before else after in
  let round i =
    sl.n <- 0;
    let h0 = Stats.now () in
    let gs = Array.map (fun ops -> ops.(i)) stream.ops in
    Array.iteri (fun s g -> reqs.(s) <- encode st s g) gs;
    let c0 = counts () in
    slice sl h0 (Stats.now ()) Harness;
    let round0 = Stats.now () in
    let t = Stats.now () in
    Server.feed st.server st.conns.(0) reqs.(0);
    call t;
    let t = Stats.now () in
    Server.feed st.server st.conns.(1) reqs.(1);
    call t;
    let t = Stats.now () in
    ignore (Server.step st.server);
    call t;
    let t = Stats.now () in
    outs.(0) <- Server.output st.server st.conns.(0);
    call t;
    let t = Stats.now () in
    outs.(1) <- Server.output st.server st.conns.(1);
    call t;
    service := !service +. Int64.to_float (Int64.sub (Stats.now ()) round0);
    incr rounds;
    for k = 0 to sl.n - 1 do
      if sl.lay.(k) = Srv then calls := !calls +. Int64.to_float (Int64.sub sl.t1.(k) sl.t0.(k))
    done;
    (* Harness: counters, slots, tracer spans, self times, GC pauses. *)
    let h2 = Stats.now () in
    let c1 = counts () in
    add jcommits c0.(0) c1.(0);
    add jblocks c0.(1) c1.(1);
    add submitted c0.(2) c1.(2);
    add merged c0.(3) c1.(3);
    collect st gs outs ~notes;
    let fsync = Array.exists (fun g -> match g.Gen.op with Op.Fsync _ -> true | _ -> false) gs in
    List.iter
      (function
        | Tracer.Begin { name; ts; _ } -> stack := (name, ts) :: !stack
        | Tracer.End { ts; _ } -> (
            match !stack with
            | (name, t0) :: rest ->
                stack := rest;
                close name t0 ts ~fsync
            | [] -> ())
        | Tracer.Instant _ -> ())
      (Tracer.events tracer);
    Tracer.clear tracer;
    (* Self time per layer: each slice minus the slices directly under
       it.  Device slices nest but are not subtracted. *)
    let counted k = sl.lay.(k) <> Harness && sl.lay.(k) <> Device in
    let covers j k =
      sl.t0.(j) <= sl.t0.(k) && sl.t1.(k) <= sl.t1.(j) && (sl.t0.(j) < sl.t0.(k) || sl.t1.(k) < sl.t1.(j) || j < k)
    in
    for k = 0 to sl.n - 1 do
      if counted k then begin
        let d = Int64.to_float (Int64.sub sl.t1.(k) sl.t0.(k)) in
        self.(layer_index sl.lay.(k)) <- self.(layer_index sl.lay.(k)) +. d;
        let parent = ref (-1) in
        for j = 0 to sl.n - 1 do
          if j <> k && counted j && covers j k && (!parent < 0 || covers !parent j) then parent := j
        done;
        if !parent >= 0 then self.(layer_index sl.lay.(!parent)) <- self.(layer_index sl.lay.(!parent)) -. d
      end
    done;
    ignore (Runtime_events.read_poll cursor callbacks None);
    slice sl h2 (Stats.now ()) Harness;
    List.iter
      (fun (p0, p1) ->
        let lay = if p0 < h0 then Some Harness else innermost sl p0 in
        Option.iter (fun l -> gc.(layer_index l) <- gc.(layer_index l) +. Int64.to_float (Int64.sub p1 p0)) lay)
      !pauses;
    pauses := []
  in
  let go lo hi =
    Runtime_events.resume ();
    ignore (Runtime_events.read_poll cursor callbacks None);
    pauses := [];
    for i = lo to hi - 1 do
      round i
    done;
    Runtime_events.pause ()
  in
  let finish () =
    let cs1 = Controller.stats st.ctl and ss1 = Server.stats st.server in
    let reports = List.filteri (fun i _ -> i >= nrec0) (Controller.recoveries st.ctl) in
    let recoveries = cs1.Controller.recoveries - cs0.Controller.recoveries in
    if !notes <> Daemon.sessions * recoveries then
      Daemon.miss (Printf.sprintf "in-process: %d Note_recovered for %d recoveries" !notes recoveries);
    (* The final state: a clean image, and the spec's tree. *)
    (match Controller.sync st.ctl with Ok () -> () | Error e -> Daemon.miss ("in-process sync: " ^ Errno.to_string e));
    let report = Rae_fsck.Fsck.check_device st.raw in
    if not (Rae_fsck.Fsck.clean report) then
      Daemon.miss (Format.asprintf "in-process image not clean: %a" Rae_fsck.Fsck.pp_report report);
    (match Oracle.tree_diff stream.final (Oracle.tree (Controller.exec st.ctl)) with
    | None -> ()
    | Some d -> Daemon.miss ("in-process final tree differs from the spec: " ^ d));
    {
      t_ops = float_of_int (Daemon.sessions * !rounds);
      t_service = !service;
      t_calls = !calls;
      self;
      gc;
      exec = Int64.to_float !exec_ns -. !recovery;
      cut = !cut;
      fold = !fold;
      commit = !commit;
      device = Int64.to_float !dev_ns;
      dev_reads = !reads;
      dev_writes = !writes;
      dev_flushes = !flushes;
      recovery = !recovery;
      phases = Hashtbl.fold (fun k v acc -> (k, v) :: acc) phases [];
      replay = !replay;
      download_commit = !download_commit;
      reports;
      served = ss1.Server.served - ss0.Server.served;
      seeded = seeded () - seeded0;
      commits_fsync = !commits_fsync;
      jcommits = !jcommits;
      jblocks = !jblocks;
      submitted = !submitted;
      merged = !merged;
    }
  in
  (go, finish)

(* A bare Base.exec, no bug armed, no triggers: the base's own cost. *)
let bare_arm stream =
  let dev =
    Rae_block.Device.of_disk
      (Rae_block.Disk.create ~latency:Rae_block.Disk.zero_latency ~block_size:Rae_format.Layout.block_size
         ~nblocks:8192 ())
  in
  (match Base.mkfs dev ~ninodes:1024 () with Ok () -> () | Error m -> failwith m);
  let base = match Base.mount dev with Ok b -> b | Error m -> failwith m in
  let slots = Array.init Daemon.sessions (fun _ -> Array.make Gen.nslots (-1)) in
  let exec s (g : Gen.gop) =
    match Base.exec base (Gen.subst slots.(s) g.Gen.op) with
    | Ok (Op.Fd v) when g.Gen.bind >= 0 -> slots.(s).(g.Gen.bind) <- v
    | _ -> ()
  in
  Array.iteri (fun s ops -> Array.iter (exec s) ops) stream.setup;
  for i = 0 to stream.warm - 1 do
    Array.iteri (fun s ops -> exec s ops.(i)) stream.ops
  done;
  let total = ref 0L and n = ref 0 in
  let go lo hi =
    for i = lo to hi - 1 do
      Array.iteri
        (fun s ops ->
          let g = ops.(i) in
          if not g.Gen.trigger then begin
            let t0 = Stats.now () in
            exec s g;
            total := Int64.add !total (Int64.sub (Stats.now ()) t0);
            incr n
          end)
        stream.ops
    done
  in
  (go, fun () -> Stats.ratio (Int64.to_float !total) (float_of_int !n))

let chunk = 200

(* Rounds [lo, hi) in chunks, each chunk through every arm, the arm order
   rotating from chunk to chunk. *)
let interleave ~lo ~hi arms =
  let arms = Array.of_list arms in
  let n = Array.length arms in
  let rec go i k =
    if i < hi then begin
      let j = min hi (i + chunk) in
      for a = 0 to n - 1 do
        arms.((a + k) mod n) i j
      done;
      go j (k + 1)
    end
  in
  go lo 0

(* ---- the ledger ---- *)

let run ~rfsd ~run_dir workload ~seed ~seconds =
  let rounds = min max_rounds (int_of_float (seconds *. float_of_int rounds_per_second)) in
  let stream = materialize workload ~seed ~rounds in
  let daemon, daemon_done = daemon_arm ~rfsd ~run_dir workload ~seed in
  let rfsd_clock, rfsd_clock_done = untraced_arm stream ~bench_clock:false in
  let untraced, untraced_done = untraced_arm stream ~bench_clock:true in
  let traced, traced_done = traced_arm stream in
  let bare, bare_done = bare_arm stream in
  interleave ~lo:stream.warm ~hi:(stream.warm + rounds) [ daemon; rfsd_clock; untraced; traced; bare ];
  let e2e_us, before, after = daemon_done () in
  let u = rfsd_clock_done () and ub = untraced_done () and t = traced_done () and bare_ns = bare_done () in
  let d = Daemon.diff before after in
  let ops = t.t_ops in
  (* Drift guard: interleaving-independent counts must match the daemon's. *)
  let guard name daemon inproc =
    if daemon <> inproc then
      Daemon.miss (Printf.sprintf "drift: %s is %.0f in rfsd, %.0f in-process" name daemon inproc)
  in
  guard "ops served" (d "rae_srv_ops_total") (float_of_int t.served);
  guard "recoveries" (d "rae_recoveries_total") (float_of_int (List.length t.reports));
  guard "checkpoint seeds" (d "rae_ckpt_seeded_total") (float_of_int t.seeded);
  let us_per_op ns = ns /. ops /. 1e3 in
  let per_kop n = n *. 1000. /. ops in
  let nrec = float_of_int (List.length t.reports) in
  let per_rec_ms ns = Stats.ratio ns nrec /. 1e6 in
  let mean_rec f = Stats.ratio (List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0. t.reports) nrec in
  let hits c = Stats.ratio (d (c ^ "_hits_total")) (d (c ^ "_hits_total") +. d (c ^ "_misses_total")) in
  let user = float_of_int stream.user_bytes in
  let block_bytes n = float_of_int (n * Rae_format.Layout.block_size) in
  let service_us = us_per_op t.t_service and inproc_us = ub.service_ns /. 1e3 in
  let layer l = t.self.(layer_index l) in
  let gc l = us_per_op t.gc.(layer_index l) in
  [
    ("rfsd.transport_us_per_op", e2e_us -. (u.round_ns /. 1e3), "us");
    ("rfsd.e2e_mean_us", e2e_us, "us");
    ("inproc.service_us_per_op", u.service_ns /. 1e3, "us");
    ("inproc.round_us", u.round_ns /. 1e3, "us");
    ("inproc.cpu_clock_us_per_op", (u.service_ns -. ub.service_ns) /. 1e3, "us");
    ("trace.service_us_per_op", service_us, "us");
    ("srv.self_us_per_op", us_per_op (layer Srv), "us");
    ("srv.frames_per_op", (d "rae_srv_frames_in_total" +. d "rae_srv_frames_out_total") /. ops, "count");
    ("srv.batch_size_mean", Stats.ratio (d "rae_srv_ops_total") (d "rae_srv_batches_total"), "count");
    ("srv.busy_frames", d "rae_srv_busy_total", "count");
    ("core.self_us_per_op", us_per_op (layer Core), "us");
    ("core.exec_us_per_op", us_per_op t.exec, "us");
    ("core.rae_overhead_us_per_op", us_per_op t.exec -. (bare_ns /. 1e3), "us");
    ("core.ckpt_cut_us_per_op", us_per_op t.cut, "us");
    ("core.ckpt_cuts_per_kop", per_kop (d "rae_ckpt_cuts_total"), "count");
    ("core.ckpt_fold_us_per_op", us_per_op t.fold, "us");
    ("core.ckpt_folds_per_kop", per_kop (d "rae_ckpt_folds_total"), "count");
    ("core.ckpt_ops_per_fold", Stats.ratio (d "rae_ckpt_folded_ops_total") (d "rae_ckpt_folds_total"), "count");
    ("core.recoveries", nrec, "count");
    ("core.recovery_ms", per_rec_ms t.recovery, "ms");
  ]
  @ List.map
      (fun name ->
        ( Printf.sprintf "core.phase.%s_ms" name,
          per_rec_ms (Option.value ~default:0. (List.assoc_opt name t.phases)),
          "ms" ))
      Controller.phase_names
  @ [
      ("core.window_ops", mean_rec (fun r -> r.Report.r_window), "count");
      ("core.delta_ops", mean_rec (fun r -> r.Report.r_replayed), "count");
      ("core.seeded_share", Stats.ratio (float_of_int t.seeded) nrec, "ratio");
      ("basefs.self_us_per_op", us_per_op (layer Basefs), "us");
      ("basefs.exec_us_per_op", bare_ns /. 1e3, "us");
      ("basefs.commit_us_per_op", us_per_op t.commit, "us");
      ("basefs.commits_per_kop", per_kop (d "base_commits_total"), "count");
      ("basefs.fsync_commits_per_kop", per_kop (float_of_int t.commits_fsync), "count");
      ("basefs.handoff_blocks", mean_rec (fun r -> r.Report.r_handoff_blocks), "count");
      ("basefs.download_commit_ms", per_rec_ms t.download_commit, "ms");
      ("cache.bcache_hit_ratio", hits "bcache", "ratio");
      ("cache.icache_hit_ratio", hits "icache", "ratio");
      ("cache.dcache_hit_ratio", hits "dcache", "ratio");
      ("cache.bcache_evictions_per_op", d "bcache_evictions_total" /. ops, "count");
      ("journal.self_us_per_op", us_per_op (layer Journal), "us");
      ("journal.blocks_per_commit", Stats.ratio (float_of_int t.jblocks) (float_of_int t.jcommits), "count");
      ("journal.logged_bytes_per_user_byte", Stats.ratio (block_bytes t.jblocks) user, "ratio");
      ("journal.replay_ms", per_rec_ms t.replay, "ms");
      ("block.self_us_per_op", us_per_op (layer Block), "us");
      ("block.device_reads_per_op", float_of_int t.dev_reads /. ops, "count");
      ("block.device_writes_per_op", float_of_int t.dev_writes /. ops, "count");
      ("block.device_flushes_per_op", float_of_int t.dev_flushes /. ops, "count");
      ("block.device_us_per_op", us_per_op t.device, "us");
      ("block.write_bytes_per_user_byte", Stats.ratio (block_bytes t.dev_writes) user, "ratio");
      ("block.blkmq_merged_share", Stats.ratio (float_of_int t.merged) (float_of_int t.submitted), "ratio");
      ("gc.minor_words_per_op", ub.minor_words, "words");
      ("gc.promoted_words_per_op", ub.promoted_words, "words");
      ("gc.major_cycles_per_kop", per_kop (float_of_int ub.major_cycles), "count");
      ("gc.pause_us_per_op", gc Srv +. gc Core +. gc Basefs +. gc Block +. gc Journal +. gc Device, "us");
      ("srv.gc_us_per_op", gc Srv, "us");
      ("core.gc_us_per_op", gc Core, "us");
      ("basefs.gc_us_per_op", gc Basefs, "us");
      ("block.gc_us_per_op", gc Block +. gc Device, "us");
      ("harness.gc_us_per_op", gc Harness, "us");
      ("unattributed_us_per_op", us_per_op (t.t_service -. t.t_calls), "us");
      ("trace.overhead_pct", 100. *. Stats.ratio (service_us -. inproc_us) inproc_us, "%");
    ]
