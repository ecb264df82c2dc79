open Rae_vfs
module Controller = Rae_core.Controller
module Report = Rae_core.Report
module Metrics = Rae_obs.Metrics

type config = {
  batch_max : int;
  session : Session.config;
  max_sessions : int;
  retry_after_ms : int;
  idle_timeout : int;
}

let default_config =
  {
    batch_max = 64;
    session = Session.default_config;
    max_sessions = 256;
    retry_after_ms = 1;
    idle_timeout = 0;
  }

type stats = {
  sessions : int;
  conns_total : int;
  served : int;
  busy : int;
  batches : int;
  frames_in : int;
  frames_out : int;
  evicted : int;
  queue_depth : int;
  protocol_errors : int;
}

type conn = {
  cid : int;
  mutable session : Session.t option;  (* None until Hello *)
  mutable rx : string;  (* undecoded byte backlog *)
  tx : Buffer.t;
  enc : Wire.encoder;  (* reused across frames: no per-frame allocation *)
  mutable closed : bool;
}

type t = {
  ctl : Controller.t;
  config : config;
  now : unit -> int64;
  events : Rae_obs.Events.t option;  (* the controller's flight recorder *)
  mutable metrics_src : (unit -> string) option;  (* Prometheus text for Metrics_req *)
  mutable dispatching : (int * int * int) option;  (* (session, req, corr) mid-dispatch *)
  conns : (int, conn) Hashtbl.t;
  mutable order : int list;  (* conn ids, attach order, for round-robin *)
  mutable cursor : int;  (* rotates the round-robin start point *)
  mutable next_cid : int;
  mutable tick : int;
  mutable seen_recoveries : int;
  mutable degraded_notified : bool;
  op_hist : Metrics.histogram;
  batch_hist : Metrics.histogram;
  mutable s_conns_total : int;
  mutable s_served : int;
  mutable s_busy : int;
  mutable s_batches : int;
  mutable s_frames_in : int;
  mutable s_frames_out : int;
  mutable s_evicted : int;
  mutable s_proto_errors : int;
}

let attached_sessions t =
  List.filter_map
    (fun cid ->
      match Hashtbl.find_opt t.conns cid with
      | Some conn when (not conn.closed) && conn.session <> None -> Some conn
      | _ -> None)
    t.order

let record_session t action ~session =
  match t.events with Some ev -> Rae_obs.Events.record_session ev action ~session | None -> ()

(* What a postmortem bundle reports as the sessions a recovery impacted:
   every attached session with its queued (req, corr) pairs — plus the
   request being dispatched right now, which is by construction the one
   whose op triggered the recovery — and the distinct client correlation
   ids across them. *)
let impacted_sessions_json t =
  let module J = Rae_obs.Jsonx in
  let one conn =
    match conn.session with
    | None -> None
    | Some s ->
        let sid = Session.id s in
        let inflight =
          (match t.dispatching with
          | Some (d_sid, req, corr) when d_sid = sid -> [ (req, corr) ]
          | _ -> [])
          @ Session.pending_entries s
        in
        let corrs =
          List.sort_uniq compare (List.filter_map (fun (_, c) -> if c = 0 then None else Some c) inflight)
        in
        Some
          (J.Obj
             [
               ("session", J.Int sid);
               ("open_fds", J.Int (Session.fd_count s));
               ( "inflight",
                 J.List
                   (List.map
                      (fun (req, corr) -> J.Obj [ ("req", J.Int req); ("corr", J.Int corr) ])
                      inflight) );
               ("corr_ids", J.List (List.map (fun c -> J.Int c) corrs));
             ])
  in
  J.List (List.filter_map one (attached_sessions t))

let create ?(config = default_config) ?now ctl =
  let now = match now with Some f -> f | None -> Rae_obs.Clock.now_ns in
  let t =
  {
    ctl;
    config;
    now;
    events = Controller.events ctl;
    metrics_src = None;
    dispatching = None;
    conns = Hashtbl.create 32;
    order = [];
    cursor = 0;
    next_cid = 1;
    tick = 0;
    seen_recoveries = (Controller.stats ctl).Controller.recoveries;
    degraded_notified = false;
    op_hist = Metrics.histogram ();
    batch_hist = Metrics.histogram ();
    s_conns_total = 0;
    s_served = 0;
    s_busy = 0;
    s_frames_in = 0;
    s_frames_out = 0;
    s_batches = 0;
    s_evicted = 0;
    s_proto_errors = 0;
  }
  in
  (* Postmortem bundles written by this controller name the sessions and
     in-flight requests the recovery hit. *)
  Controller.set_bundle_context ctl (fun () ->
      [ ("impacted_sessions", impacted_sessions_json t) ]);
  t

let set_metrics_source t f = t.metrics_src <- Some f

(* ---- frame emission ---- *)

let send t conn frame =
  if not conn.closed then begin
    Wire.encode_into conn.enc frame conn.tx;
    t.s_frames_out <- t.s_frames_out + 1
  end

let release_session t conn =
  match conn.session with
  | None -> ()
  | Some session ->
      List.iter (fun (_vfd, fd) -> ignore (Controller.close t.ctl fd)) (Session.open_fds session);
      conn.session <- None

let drop t conn =
  release_session t conn;
  conn.closed <- true;
  conn.rx <- "";
  t.order <- List.filter (fun cid -> cid <> conn.cid) t.order

(* ---- transport edge ---- *)

let open_conn t =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  t.s_conns_total <- t.s_conns_total + 1;
  Hashtbl.replace t.conns cid
    {
      cid;
      session = None;
      rx = "";
      tx = Buffer.create 256;
      enc = Wire.encoder ();
      closed = false;
    };
  t.order <- t.order @ [ cid ];
  cid

let protocol_error t conn msg =
  t.s_proto_errors <- t.s_proto_errors + 1;
  send t conn (Wire.Err { errno = Errno.EPROTO; msg });
  drop t conn

(* One decoded frame from connection [conn].  Control frames are answered
   immediately; operation requests go through admission control into the
   session queue and wait for a scheduler turn. *)
let handle_frame t conn frame =
  t.s_frames_in <- t.s_frames_in + 1;
  (match conn.session with
  | Some session -> Session.touch session ~tick:t.tick
  | None -> ());
  match (frame : Wire.frame) with
  | Wire.Hello { version } ->
      if conn.session <> None then protocol_error t conn "duplicate hello"
      else if version <> Wire.protocol_version then begin
        t.s_proto_errors <- t.s_proto_errors + 1;
        send t conn
          (Wire.Err
             {
               errno = Errno.EPROTO;
               msg = Printf.sprintf "protocol version %d unsupported" version;
             });
        drop t conn
      end
      else if List.length (attached_sessions t) >= t.config.max_sessions then begin
        send t conn (Wire.Err { errno = Errno.EAGAIN; msg = "server full" });
        drop t conn
      end
      else begin
        let session = Session.create ~id:conn.cid t.config.session in
        Session.touch session ~tick:t.tick;
        conn.session <- Some session;
        record_session t `Attach ~session:conn.cid;
        send t conn (Wire.Hello_ok { session = conn.cid; version })
      end
  | Wire.Ping { token } -> send t conn (Wire.Pong { token })
  | Wire.Stats_req ->
      let cs = Controller.stats t.ctl in
      send t conn
        (Wire.Stats_reply
           {
             Wire.ws_sessions = List.length (attached_sessions t);
             ws_served = t.s_served;
             ws_busy = t.s_busy;
             ws_recoveries = cs.Controller.recoveries;
             ws_degraded = Controller.degraded t.ctl <> None;
           })
  | Wire.Detach ->
      (match conn.session with
      | Some session -> record_session t `Detach ~session:(Session.id session)
      | None -> ());
      send t conn Wire.Detach_ok;
      drop t conn
  | Wire.Op_req { req; corr; op } -> (
      match conn.session with
      | None -> protocol_error t conn "operation before hello"
      | Some session -> (
          match Session.enqueue session ~req ~corr op with
          | `Queued -> ()
          | `Busy ->
              Session.note_busy session;
              t.s_busy <- t.s_busy + 1;
              record_session t `Retry ~session:(Session.id session);
              send t conn (Wire.Busy { req; retry_after_ms = t.config.retry_after_ms })))
  | Wire.Metrics_req ->
      let text = match t.metrics_src with Some f -> f () | None -> "" in
      send t conn (Wire.Metrics_reply { text })
  | Wire.Bundles_req ->
      let names = List.map Filename.basename (Controller.bundles t.ctl) in
      send t conn (Wire.Bundles_reply { names })
  | Wire.Bundle_req { name } -> (
      (* Serve only bundles this controller wrote, matched by basename —
         the client never names a server path. *)
      let path =
        List.find_opt (fun p -> Filename.basename p = name) (Controller.bundles t.ctl)
      in
      match path with
      | None -> send t conn (Wire.Err { errno = Errno.ENOENT; msg = "no such bundle: " ^ name })
      | Some p -> (
          match Rae_obs.Blackbox.read_file p with
          | Ok data -> send t conn (Wire.Bundle_reply { name; data })
          | Error msg -> send t conn (Wire.Err { errno = Errno.EIO; msg })))
  | Wire.Hello_ok _ | Wire.Detach_ok | Wire.Pong _ | Wire.Stats_reply _ | Wire.Op_reply _
  | Wire.Busy _ | Wire.Err _ | Wire.Note_degraded _ | Wire.Note_recovered _
  | Wire.Metrics_reply _ | Wire.Bundles_reply _ | Wire.Bundle_reply _ ->
      protocol_error t conn "server-only frame from client"

let feed t cid bytes =
  match Hashtbl.find_opt t.conns cid with
  | None -> ()
  | Some conn when conn.closed -> ()
  | Some conn ->
      conn.rx <- (if conn.rx = "" then bytes else conn.rx ^ bytes);
      let buf = Bytes.unsafe_of_string conn.rx in
      let len = Bytes.length buf in
      let pos = ref 0 in
      let continue = ref true in
      while !continue && not conn.closed do
        match Wire.decode buf ~pos:!pos ~len:(len - !pos) with
        | Wire.Frame (frame, consumed) ->
            pos := !pos + consumed;
            handle_frame t conn frame
        | Wire.Need_more -> continue := false
        | Wire.Fail err ->
            protocol_error t conn (Format.asprintf "%a" Wire.pp_error err);
            continue := false
      done;
      if not conn.closed then
        conn.rx <- (if !pos = 0 then conn.rx else String.sub conn.rx !pos (len - !pos))

let output t cid =
  match Hashtbl.find_opt t.conns cid with
  | None -> ""
  | Some conn ->
      let s = Buffer.contents conn.tx in
      Buffer.clear conn.tx;
      if conn.closed && s = "" then Hashtbl.remove t.conns cid;
      s

let has_output t cid =
  match Hashtbl.find_opt t.conns cid with None -> false | Some conn -> Buffer.length conn.tx > 0

let conn_closed t cid =
  match Hashtbl.find_opt t.conns cid with None -> true | Some conn -> conn.closed

let close_conn t cid =
  match Hashtbl.find_opt t.conns cid with
  | None -> ()
  | Some conn ->
      drop t conn;
      if Buffer.length conn.tx = 0 then Hashtbl.remove t.conns cid

(* ---- dispatch ---- *)

(* Execute one request on the controller, translating virtual fds on the
   way in and binding/releasing them on the way out. *)
let dispatch t conn session (req, corr, op) =
  let outcome =
    match Session.translate session op with
    | Error e -> Error e
    | Ok real_op -> (
        let sid = Session.id session in
        (* Visible to the bundle context while the controller runs: if
           this op triggers a recovery, the postmortem names it. *)
        t.dispatching <- Some (sid, req, corr);
        let t0 = t.now () in
        let out =
          Fun.protect
            ~finally:(fun () -> t.dispatching <- None)
            (fun () -> Controller.exec_for t.ctl ~corr ~session:sid real_op)
        in
        Metrics.observe t.op_hist (Int64.sub (t.now ()) t0);
        match (op, out) with
        | Op.Open _, Ok (Op.Fd real) -> Ok (Op.Fd (Session.bind_fd session ~real))
        | Op.Close vfd, Ok Op.Unit ->
            Session.release_fd session ~vfd;
            out
        | _ -> out)
  in
  Session.note_served session;
  t.s_served <- t.s_served + 1;
  send t conn (Wire.Op_reply { req; outcome })

(* Round-robin over attached sessions: one request per session per pass,
   bounded by the global batch and the per-session rate quota.  The start
   point rotates each turn so equal-pressure sessions share first-dispatch
   latency. *)
let run_batch t =
  let ring = Array.of_list (attached_sessions t) in
  let n = Array.length ring in
  if n = 0 then 0
  else begin
    let taken = Array.make n 0 in
    let start = if n = 0 then 0 else t.cursor mod n in
    t.cursor <- t.cursor + 1;
    let served = ref 0 in
    let progressed = ref true in
    while !progressed && !served < t.config.batch_max do
      progressed := false;
      for i = 0 to n - 1 do
        let idx = (start + i) mod n in
        let conn = ring.(idx) in
        if !served < t.config.batch_max && not conn.closed then
          match conn.session with
          | Some session when taken.(idx) < t.config.session.Session.max_ops_per_turn -> (
              match Session.dequeue session with
              | Some entry ->
                  taken.(idx) <- taken.(idx) + 1;
                  incr served;
                  progressed := true;
                  Session.touch session ~tick:t.tick;
                  dispatch t conn session entry
              | None -> ())
          | Some _ | None -> ()
      done
    done;
    !served
  end

(* Push Note_recovered for every controller recovery past the watermark,
   and Note_degraded once when the controller enters fail-stop. *)
let broadcast_recovery_notes t =
  let cs = Controller.stats t.ctl in
  let recoveries = cs.Controller.recoveries in
  if recoveries > t.seen_recoveries then begin
    let reports = Controller.recoveries t.ctl in
    for seq = t.seen_recoveries + 1 to recoveries do
      let trigger, wall_us =
        match List.nth_opt reports (seq - 1) with
        | Some r ->
            ( Report.trigger_to_string r.Report.r_trigger,
              int_of_float (r.Report.r_wall_seconds *. 1e6) )
        | None -> ("unknown", 0)
      in
      List.iter
        (fun conn -> send t conn (Wire.Note_recovered { seq; trigger; wall_us }))
        (attached_sessions t)
    done;
    t.seen_recoveries <- recoveries
  end;
  match Controller.degraded t.ctl with
  | Some reason when not t.degraded_notified ->
      t.degraded_notified <- true;
      List.iter (fun conn -> send t conn (Wire.Note_degraded { reason })) (attached_sessions t)
  | Some _ | None -> ()

let evict_idle t =
  if t.config.idle_timeout > 0 then
    List.iter
      (fun conn ->
        match conn.session with
        | Some session
          when Session.pending session = 0
               && t.tick - Session.last_active session > t.config.idle_timeout ->
            t.s_evicted <- t.s_evicted + 1;
            record_session t `Evict ~session:(Session.id session);
            drop t conn
        | Some _ | None -> ())
      (attached_sessions t)

let step t =
  t.tick <- t.tick + 1;
  let served = run_batch t in
  if served > 0 then begin
    t.s_batches <- t.s_batches + 1;
    Metrics.observe t.batch_hist (Int64.of_int served)
  end;
  broadcast_recovery_notes t;
  evict_idle t;
  served

let queue_depth t =
  List.fold_left
    (fun acc conn ->
      match conn.session with Some s -> acc + Session.pending s | None -> acc)
    0 (attached_sessions t)

let stats t =
  {
    sessions = List.length (attached_sessions t);
    conns_total = t.s_conns_total;
    served = t.s_served;
    busy = t.s_busy;
    batches = t.s_batches;
    frames_in = t.s_frames_in;
    frames_out = t.s_frames_out;
    evicted = t.s_evicted;
    queue_depth = queue_depth t;
    protocol_errors = t.s_proto_errors;
  }

let register_obs reg t =
  Metrics.register_counter reg ~help:"frames decoded from clients"
    ~reset:(fun () -> t.s_frames_in <- 0)
    "rae_srv_frames_in_total"
    (fun () -> t.s_frames_in);
  Metrics.register_counter reg ~help:"frames sent to clients"
    ~reset:(fun () -> t.s_frames_out <- 0)
    "rae_srv_frames_out_total"
    (fun () -> t.s_frames_out);
  Metrics.register_counter reg ~help:"operations dispatched to the controller"
    ~reset:(fun () -> t.s_served <- 0)
    "rae_srv_ops_total"
    (fun () -> t.s_served);
  Metrics.register_counter reg ~help:"Busy (backpressure) frames sent"
    ~reset:(fun () -> t.s_busy <- 0)
    "rae_srv_busy_total"
    (fun () -> t.s_busy);
  Metrics.register_counter reg ~help:"scheduler turns that dispatched work"
    ~reset:(fun () -> t.s_batches <- 0)
    "rae_srv_batches_total"
    (fun () -> t.s_batches);
  Metrics.register_counter reg ~help:"sessions evicted for idleness"
    ~reset:(fun () -> t.s_evicted <- 0)
    "rae_srv_evicted_total"
    (fun () -> t.s_evicted);
  Metrics.register_counter reg ~help:"protocol violations that dropped a connection"
    ~reset:(fun () -> t.s_proto_errors <- 0)
    "rae_srv_protocol_errors_total"
    (fun () -> t.s_proto_errors);
  Metrics.register_gauge reg ~help:"currently attached sessions" "rae_srv_sessions" (fun () ->
      float_of_int (List.length (attached_sessions t)));
  Metrics.register_gauge reg ~help:"requests queued across sessions" "rae_srv_queue_depth"
    (fun () -> float_of_int (queue_depth t));
  Metrics.register_histogram reg ~help:"requests dispatched per scheduler turn"
    "rae_srv_batch_size" t.batch_hist;
  Metrics.register_histogram reg ~help:"per-operation dispatch latency (ns)" "rae_srv_op_ns"
    t.op_hist
