(* rfsbench: the end-to-end benchmark of the rfs serving stack.

     python3 rfsbench/run.py --workload varmail --seed 1 --seconds 10 --trace 0

   --trace 0 drives the shipped rfsd over its Unix socket and reports the
   end-to-end metrics, scaled to a reference host speed (calib.ml);
   --trace 1 replays one seeded stream through the daemon and,
   interleaved with it, through the daemon's stack rebuilt in-process,
   and reports the per-layer ledger.  Every metric is printed by name
   with its unit; the last stdout line is one JSON object
   {correct, attempted, failed, metrics}.  Exit status 0 only when every
   op matched the spec oracle and every harness check held. *)

let usage =
  "rfsbench --workload NAME --seed N --seconds S --trace 0|1 [--rfsd PATH] [--run-dir DIR]"

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let rfsd = ref "_build/default/bin/rfsd.exe"
let run_dir = ref "rfsbench/_run"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME varmail | webserver | metadata-recover");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
    ("--rfsd", Arg.Set_string rfsd, "PATH the daemon binary");
    ("--run-dir", Arg.Set_string run_dir, "DIR private directory for daemon sockets");
  ]

let nproc () =
  List.length
    (List.filter (String.starts_with ~prefix:"processor") (String.split_on_char '\n' (Daemon.read_file "/proc/cpuinfo")))

(* HEAD of a git checkout in the working directory, else "unknown". *)
let git_rev () =
  let read path = try Some (String.trim (Daemon.read_file path)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with Some rev -> rev | None -> "unknown")
  | Some rev -> rev
  | None -> "unknown"

let print_metrics ~correct ~attempted ~failed metrics =
  List.iter (fun (name, value, unit) -> Printf.printf "%-40s %16.6f %s\n" name value unit) metrics;
  let finite v = if Float.is_finite v then v else 0. in
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name (finite value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted
    failed body

let measured w =
  let r = Measured.run ~rfsd:!rfsd ~run_dir:!run_dir w ~seed:!seed ~seconds:!seconds in
  let spread name unit l =
    let med, q1, q3, lo, hi = Stats.spread l in
    Printf.printf "  %-22s median %.3f  q1 %.3f  q3 %.3f  min %.3f  max %.3f %s\n" name med q1 q3 lo hi unit
  in
  Printf.printf "timed phase: %d replies, %d stall samples; per-second windows:\n" r.Measured.replies
    r.Measured.stalls;
  let windows f = List.map f r.Measured.windows in
  spread "ops_per_s" "1/s" (windows (fun w -> w.Measured.w_ops_per_s));
  spread "op_p50_us" "us" (windows (fun w -> w.Measured.w_p50_us));
  spread "op_p99_us" "us" (windows (fun w -> w.Measured.w_p99_us));
  spread "server_cpu_us_per_op" "us" (windows (fun w -> w.Measured.w_cpu_us_per_op));
  spread "calibration_factor" "x" (windows (fun w -> w.Measured.w_factor));
  spread "uncalibrated_ops_per_s" "1/s" (windows (fun w -> w.Measured.w_raw_ops_per_s));
  spread "setup_s" "s" r.Measured.setup_runs;
  let d = Daemon.diff r.Measured.before r.Measured.after in
  Printf.printf "daemon counters over the timed phase:";
  List.iter
    (fun c -> Printf.printf " %s=%.0f" c (d c))
    [
      "rae_srv_ops_total"; "rae_srv_batches_total"; "rae_srv_busy_total"; "base_commits_total";
      "bcache_hits_total"; "bcache_misses_total"; "icache_hits_total";
      "icache_misses_total"; "dcache_hits_total"; "dcache_misses_total"; "rae_ckpt_cuts_total";
      "rae_ckpt_folds_total"; "rae_recoveries_total";
    ];
  print_newline ();
  Printf.printf "failed_op_share %.6f (%d of %d ops)\n" (Stats.ratio (float !Daemon.failed) (float !Daemon.attempted))
    !Daemon.failed !Daemon.attempted;
  [
    ("ops_per_s", r.Measured.ops_per_s, "1/s");
    ("op_p50_us", r.Measured.op_p50_us, "us");
    ("op_p99_us", r.Measured.op_p99_us, "us");
    ("recovery_stall_p50_ms", r.Measured.stall_p50_ms, "ms");
    ("recovery_stall_p90_ms", r.Measured.stall_p90_ms, "ms");
    ("server_cpu_us_per_op", r.Measured.cpu_us_per_op, "us");
    ("server_peak_rss_mib", r.Measured.rss_mib, "MiB");
    ("setup_s", r.Measured.setup_s, "s");
  ]

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.assoc_opt !workload Gen.workloads with
    | Some w -> w
    | None ->
        prerr_endline ("rfsbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists !rfsd) then begin
    prerr_endline ("rfsbench: no daemon binary at " ^ !rfsd);
    exit 2
  end;
  (try Unix.mkdir !run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "provenance: rev %s, nproc %d, ocaml %s, workload %s, seed %d, seconds %g, trace %d, daemon flags --socket <private> --bugs %s\n%!"
    (git_rev ()) (nproc ()) Sys.ocaml_version !workload !seed !seconds !trace Daemon.bug;
  match if !trace = 0 then measured w else Traced.run ~rfsd:!rfsd ~run_dir:!run_dir w ~seed:!seed ~seconds:!seconds with
  | metrics ->
      List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev !Daemon.failures);
      let correct = !Daemon.failed = 0 in
      print_metrics ~correct ~attempted:!Daemon.attempted ~failed:!Daemon.failed metrics;
      exit (if correct then 0 else 1)
  | exception Daemon.Broken msg ->
      Printf.eprintf "rfsbench: %s\n" msg;
      List.iter (fun f -> Printf.eprintf "FAILED: %s\n" f) (List.rev !Daemon.failures);
      exit 1
