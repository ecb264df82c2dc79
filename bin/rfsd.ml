(* rfsd: the rfs serving daemon.

   Mounts an in-memory rfs image behind the RAE controller and serves it
   over a Unix domain socket with the rae_srv wire protocol.  The event
   loop is single-threaded select(2): one select wakeup per scheduler
   turn, so concurrent clients get their requests batched exactly as the
   loopback transport batches them in tests.

   Client modes (--ping / --stats) dial an existing daemon's socket and
   exercise the same Srv_client library the in-process tests use, which
   makes a two-process smoke test a one-liner:

     rfsd --socket /tmp/rfs.sock &
     rfsd --socket /tmp/rfs.sock --ping --stats *)

open Cmdliner
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Controller = Rae_core.Controller
module Server = Rae_srv.Server
module Srv_client = Rae_srv.Srv_client
module Transport = Rae_srv.Transport
module Socket_transport = Rae_srv.Socket_transport

let stop = ref false

module Drive = Transport.Drive (Socket_transport)

(* ---- client-mode io over a connected socket ---- *)

let io_of_fd fd =
  let send s =
    let n = String.length s in
    let off = ref 0 in
    (try
       while !off < n do
         off := !off + Unix.write_substring fd s !off (n - !off)
       done
     with Unix.Unix_error _ -> ())
  in
  let recv () =
    match Unix.select [ fd ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some ""
    | [], _, _ -> Some ""
    | _ -> (
        let buf = Bytes.create 65536 in
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> None
        | n -> Some (Bytes.sub_string buf 0 n)
        | exception Unix.Unix_error _ -> None)
  in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  { Srv_client.io_send = send; io_recv = recv; io_close = close }

let dial path () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some (io_of_fd fd)
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

let run_client path do_ping do_stats do_metrics do_bundles fetch =
  match Srv_client.connect ~dial:(dial path) () with
  | Error msg ->
      Printf.eprintf "rfsd: cannot attach to %s: %s\n" path msg;
      exit 1
  | Ok c ->
      let failed = ref false in
      let err fmt =
        failed := true;
        Printf.eprintf fmt
      in
      Printf.printf "attached: session %d\n" (Srv_client.session c);
      (if do_ping then
         if Srv_client.ping c then Printf.printf "ping: ok\n" else err "ping: FAILED\n");
      (if do_stats then
         match Srv_client.server_stats c with
         | Ok s ->
             Printf.printf "server: %d session(s), %d op(s) served, %d busy, %d recover%s%s\n"
               s.Rae_srv.Wire.ws_sessions s.Rae_srv.Wire.ws_served s.Rae_srv.Wire.ws_busy
               s.Rae_srv.Wire.ws_recoveries
               (if s.Rae_srv.Wire.ws_recoveries = 1 then "y" else "ies")
               (if s.Rae_srv.Wire.ws_degraded then " [DEGRADED]" else "")
         | Error e -> err "stats: error %s\n" (Rae_vfs.Errno.to_string e));
      (if do_metrics then
         match Srv_client.metrics c with
         | Ok text -> print_string text
         | Error e -> err "metrics: error %s\n" (Rae_vfs.Errno.to_string e));
      (if do_bundles then
         match Srv_client.bundles c with
         | Ok [] -> Printf.printf "no bundles\n"
         | Ok names -> List.iter (fun n -> Printf.printf "%s\n" n) names
         | Error e -> err "bundles: error %s\n" (Rae_vfs.Errno.to_string e));
      (match fetch with
      | None -> ()
      | Some name -> (
          match Srv_client.fetch_bundle c name with
          | Ok data -> print_string data
          | Error e -> err "bundle %s: error %s\n" name (Rae_vfs.Errno.to_string e)));
      Srv_client.detach c;
      if !failed then exit 1

(* ---- daemon mode ---- *)

let run_daemon path bug_ids seed batch_max bundle_dir =
  let specs =
    List.map
      (fun id ->
        match Bug_registry.find id with
        | Some s -> s
        | None ->
            Printf.eprintf "unknown bug %s (known: %s)\n" id
              (String.concat ", " (List.map (fun s -> s.Bug_registry.id) Bug_registry.catalog));
            exit 1)
      bug_ids
  in
  let bugs = Bug_registry.arm ~rng:(Rae_util.Rng.create seed) specs in
  let disk =
    Rae_block.Disk.create ~latency:Rae_block.Disk.zero_latency
      ~block_size:Rae_format.Layout.block_size ~nblocks:8192 ()
  in
  let dev = Rae_block.Device.of_disk disk in
  (match Base.mkfs dev ~ninodes:1024 () with Ok () -> () | Error m -> failwith m);
  let base = Result.get_ok (Base.mount ~bugs dev) in
  (* Warm-shadow checkpointing keeps recovery replay O(Δ): clients see
     shorter Busy windows when a bug fires mid-serving. *)
  let policy = { Controller.default_policy with Controller.ckpt_enabled = true } in
  (* Observability: the flight recorder (a fixed-size ring, so the
     daemon's memory holds however long it serves) and a bundle directory
     for postmortems.  No tracer: nothing in the daemon could enable one,
     and bundles embed the recorder. *)
  let events = Rae_obs.Events.create ~capacity:4096 () in
  let run_id = Printf.sprintf "rfsd-%d-%.0f" (Unix.getpid ()) (Unix.time ()) in
  let ctl = Controller.make ~policy ~events ?bundle_dir ~run_id ~device:dev base in
  let config = { Server.default_config with Server.batch_max } in
  let server = Server.create ~config ctl in
  let reg = Rae_obs.Metrics.create () in
  Controller.register_obs reg ctl;
  Server.register_obs reg server;
  Server.set_metrics_source server (fun () -> Rae_obs.Metrics.to_prometheus reg);
  let transport = Socket_transport.create ~path ~timeout:0.1 in
  let d = Drive.create transport server in
  let handle = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle;
  Printf.printf "rfsd: serving %s (%d bug(s) armed)\n%!" path (List.length specs);
  while not !stop do
    ignore (Drive.tick d)
  done;
  let s = Server.stats server in
  let cs = Controller.stats ctl in
  Printf.printf "rfsd: shutting down: %d conn(s) total, %d op(s) served, %d recover%s.\n"
    s.Server.conns_total s.Server.served cs.Controller.recoveries
    (if cs.Controller.recoveries = 1 then "y" else "ies");
  (try Unix.unlink path with Unix.Unix_error _ -> ())

let run path bug_ids seed batch_max bundle_dir do_ping do_stats do_metrics do_bundles fetch =
  if do_ping || do_stats || do_metrics || do_bundles || fetch <> None then
    run_client path do_ping do_stats do_metrics do_bundles fetch
  else run_daemon path bug_ids seed batch_max bundle_dir

let socket_arg =
  Arg.(
    value & opt string "rfsd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket to serve (or dial).")

let bugs_arg =
  Arg.(
    value & opt (list string) []
    & info [ "bugs" ] ~docv:"IDS" ~doc:"Comma-separated bug ids to arm in the base filesystem.")

let seed_arg = Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Bug-arming seed.")

let batch_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.batch_max
    & info [ "batch-max" ] ~docv:"N" ~doc:"Requests dispatched per scheduler turn.")

let ping_arg =
  Arg.(value & flag & info [ "ping" ] ~doc:"Client mode: attach to a running daemon and ping it.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Client mode: attach to a running daemon and print server stats.")

let bundle_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundle-dir" ] ~docv:"DIR"
        ~doc:
          "Write a postmortem black-box bundle here on every recovery completion and fail-stop \
           entry (daemon mode; omitting the flag disables bundles).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Client mode: fetch and print the daemon's Prometheus metrics exposition.")

let bundles_arg =
  Arg.(
    value & flag
    & info [ "bundles" ] ~doc:"Client mode: list the daemon's black-box bundle names.")

let bundle_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundle" ] ~docv:"NAME"
        ~doc:"Client mode: fetch one black-box bundle by name and print its JSON.")

let cmd =
  Cmd.v
    (Cmd.info "rfsd" ~doc:"Serve an RAE-supervised rfs image over a Unix domain socket")
    Term.(
      const run $ socket_arg $ bugs_arg $ seed_arg $ batch_arg $ bundle_dir_arg $ ping_arg
      $ stats_arg $ metrics_arg $ bundles_arg $ bundle_arg)

let () = exit (Cmd.eval cmd)
