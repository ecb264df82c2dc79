(* rae_demo: a narrated end-to-end demonstration of Robust Alternative
   Execution.  Mounts an in-memory base filesystem with a chosen bug
   armed, runs a workload through the RAE controller, and reports every
   recovery as it happens. *)

open Cmdliner
open Rae_vfs
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Controller = Rae_core.Controller
module Report = Rae_core.Report
module W = Rae_workload.Workload

(* Run the workload through the serving layer: one loopback hub, [n]
   client sessions, each with its own seeded stream of the profile,
   issued round-robin so the scheduler actually multiplexes. *)
let run_served ctl registry profile count seed ~clients ~report_recovery =
  let module Srv = Rae_srv.Server in
  let module Loopback = Rae_srv.Loopback in
  let module Client = Rae_srv.Srv_client in
  let server = Srv.create ctl in
  Srv.register_obs registry server;
  let hub = Loopback.create server in
  let n = max 1 clients in
  let per_client = max 1 (count / n) in
  Printf.printf "Serving %d loopback client session(s), ~%d ops each.\n\n" n per_client;
  let cls =
    Array.init n (fun i ->
        match Client.connect ~dial:(Loopback.dial hub) () with
        | Ok c -> c
        | Error msg ->
            Printf.eprintf "client %d failed to attach: %s\n" i msg;
            exit 1)
  in
  let queues =
    Array.init n (fun i ->
        ref (W.ops profile (Rae_util.Rng.create (Int64.add seed (Int64.of_int i))) ~count:per_client))
  in
  let errors = Array.make n 0 in
  let opno = ref 0 in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    Array.iteri
      (fun i q ->
        match !q with
        | [] -> ()
        | op :: rest ->
            q := rest;
            progressed := true;
            (match Client.exec cls.(i) op with
            | Error _ -> errors.(i) <- errors.(i) + 1
            | Ok _ -> ());
            report_recovery !opno op;
            incr opno)
      queues
  done;
  Array.iteri
    (fun i c ->
      Printf.printf
        "client %d: session %d, %d error outcome(s), %d busy retries, %d recovery notice(s)%s\n" i
        (Client.session c) errors.(i) (Client.busy_retries c) (Client.recovered_seen c)
        (match Client.degraded c with Some _ -> ", saw DEGRADED" | None -> ""))
    cls;
  let ss = Srv.stats server in
  Printf.printf "Server: %d ops served in %d batches, %d busy, %d frames in, %d frames out.\n\n"
    ss.Srv.served ss.Srv.batches ss.Srv.busy ss.Srv.frames_in ss.Srv.frames_out;
  Array.iter Client.detach cls

let run bug_ids profile_name count seed trace_out metrics_dump serve clients =
  let profile =
    match W.profile_of_name profile_name with
    | Some p -> p
    | None ->
        Printf.eprintf "unknown profile %s (known: %s)\n" profile_name
          (String.concat ", " (List.map W.profile_name W.all_profiles));
        exit 1
  in
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
  (* With a trace sink attached, run against the simulated device latency so
     span durations reflect device time rather than collapsing to ~0. *)
  let latency =
    if trace_out <> None then Rae_block.Disk.default_latency else Rae_block.Disk.zero_latency
  in
  let disk =
    Rae_block.Disk.create ~latency ~block_size:Rae_format.Layout.block_size ~nblocks:8192 ()
  in
  let dev = Rae_block.Device.of_disk disk in
  (* Timeline clock: simulated device time plus wall time, so spans order
     correctly and device-free phases still have extent. *)
  let clock () =
    Int64.add (Rae_util.Vclock.now (Rae_block.Disk.clock disk)) (Rae_obs.Clock.now_ns ())
  in
  let tracer = Rae_obs.Tracer.create ~clock () in
  if trace_out <> None then Rae_obs.Tracer.enable tracer;
  (match Base.mkfs dev ~ninodes:1024 () with Ok () -> () | Error m -> failwith m);
  let base = Result.get_ok (Base.mount ~bugs dev) in
  let ctl = Controller.make ~tracer ~device:dev base in
  let registry = Rae_obs.Metrics.create () in
  Controller.register_obs registry ctl;
  Printf.printf "Mounted an rfs image with %d bug(s) armed: %s\n" (List.length specs)
    (String.concat ", " bug_ids);
  Printf.printf "Running %d '%s' operations through the RAE controller...\n\n" count profile_name;
  let seen_recoveries = ref 0 in
  let report_recovery i op =
    let s = Controller.stats ctl in
    if s.Controller.recoveries > !seen_recoveries then begin
      seen_recoveries := s.Controller.recoveries;
      match Controller.last_recovery ctl with
      | Some r ->
          Printf.printf "op %5d  %s\n" i (Op.to_string op);
          Format.printf "          %a@.@." Report.pp_recovery r
      | None -> ()
    end
  in
  if serve then run_served ctl registry profile count seed ~clients ~report_recovery
  else
    List.iteri
      (fun i op ->
        ignore (Controller.exec ctl op);
        report_recovery i op)
      (W.ops profile (Rae_util.Rng.create seed) ~count);
  let s = Controller.stats ctl in
  Printf.printf "Done: %d ops, %d recoveries (%d failed), %d discrepancies reported.\n"
    s.Controller.ops s.Controller.recoveries s.Controller.recoveries_failed
    s.Controller.discrepancies;
  (match Controller.degraded ctl with
  | Some reason -> Printf.printf "Controller DEGRADED: %s\n" reason
  | None ->
      ignore (Controller.sync ctl);
      let report = Rae_fsck.Fsck.check_device dev in
      Printf.printf "Final image: %s\n"
        (if Rae_fsck.Fsck.clean report then "fsck clean" else "fsck FOUND ERRORS"));
  Printf.printf "Base filesystem executed %d ops, %d commits; window high-water %d ops.\n"
    (Base.stats base).Base.ops_executed (Base.stats base).Base.commits s.Controller.max_window;
  (match trace_out with
  | Some path ->
      Rae_obs.Tracer.write_chrome tracer path;
      let n = List.length (Rae_obs.Tracer.events tracer) in
      Printf.printf "Wrote %d trace events to %s (open in chrome://tracing or ui.perfetto.dev).\n" n
        path
  | None -> ());
  if metrics_dump then print_string (Rae_obs.Metrics.to_prometheus registry)

let bugs_arg =
  Arg.(
    value
    & opt (list string) [ "dx-hash-panic"; "fsync-deadlock" ]
    & info [ "bugs" ] ~docv:"IDS" ~doc:"Comma-separated bug ids to arm (see rae_demo --help).")

let profile = Arg.(value & opt string "varmail" & info [ "profile" ] ~docv:"NAME" ~doc:"Workload profile.")
let count = Arg.(value & opt int 2000 & info [ "n" ] ~docv:"N" ~doc:"Operation count.")
let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run (recovery phases, commits, \
           destages) to $(docv), viewable in chrome://tracing or Perfetto.")

let metrics_dump =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Dump the metrics registry in prometheus text format at exit.")

let serve_flag =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Run the workload through the rae_srv serving layer — in-memory loopback client \
           sessions multiplexed onto the controller — instead of calling it directly.")

let clients_arg =
  Arg.(
    value & opt int 4
    & info [ "clients" ] ~docv:"N" ~doc:"Number of loopback client sessions with $(b,--serve).")

let cmd =
  Cmd.v
    (Cmd.info "rae_demo"
       ~doc:"Demonstrate transparent recovery from injected filesystem bugs")
    Term.(
      const run $ bugs_arg $ profile $ count $ seed $ trace_out $ metrics_dump $ serve_flag
      $ clients_arg)

let () = exit (Cmd.eval cmd)
