(* The measured run (--trace 0): end-to-end numbers as a client of the
   shipped rfsd sees them, all from client-side wall-clock timestamps,
   scaled to a reference host speed by the calibration kernel ([Calib]). *)

let warmup = 3000  (* ops per session between set-up and the timed phase *)

(* Set-up is timed five times per run and the median reported: twice
   before the timed phase, once leading into it, twice after it, so the
   figure spans the host's state across the whole run. *)
let setups_before = 3
let setups_after = 2

(* Trigger cadence, in session-0 ops: a stat of a crafted name that the
   armed bug turns into a full recovery.  On metadata-recover the gap
   spans two commit intervals, so triggers land at any op window in 0-63.
   Elsewhere about one request in a thousand is a trigger: enough stall
   samples over the whole timed phase, while recovery stays under 1% of
   the time and the hot path dominates. *)
let trigger_gap = function Gen.Metadata_recover -> (64, 191) | Gen.Varmail | Gen.Webserver -> (384, 639)

(* Load slice and calibration length. *)
let slot_ns = 50e6
let cal_ns = 2.5e6

type slot = {
  s_at : float;  (* start, ns into the timed phase *)
  s_ops : int;
  s_raw_wall : float;  (* ns as measured *)
  s_wall : float;  (* scaled ns, as all below *)
  s_cpu : float;
  s_factor : float;
  s_lat : float array;
  s_stall : float array;
}

type window = {
  w_ops_per_s : float;
  w_p50_us : float;
  w_p99_us : float;
  w_cpu_us_per_op : float;
  w_factor : float;
  w_raw_ops_per_s : float;  (* before scaling *)
}

type result = {
  ops_per_s : float;
  op_p50_us : float;
  op_p99_us : float;
  stall_p50_ms : float;
  stall_p90_ms : float;
  cpu_us_per_op : float;
  rss_mib : float;
  setup_s : float;
  setup_runs : float list;
  replies : int;
  stalls : int;
  windows : window list;
  before : (string, float) Hashtbl.t;
  after : (string, float) Hashtbl.t;
}

let sock_path run_dir n = Filename.concat run_dir (Printf.sprintf "rfsd-%d-%d.sock" (Unix.getpid ()) n)

let run ~rfsd ~run_dir workload ~seed ~seconds =
  let setup_runs = ref [] in
  (* Spawn to first timed request: mkfs, mount, initial checkpoint cut,
     attach, pre-population, warm-up and the opening counter snapshot,
     scaled like a slice of the timed phase by the calibration kernel
     run on either side of it. *)
  let set_up n =
    let cal = Calib.measure cal_ns in
    let t0 = Stats.now () in
    let h = Daemon.start ~rfsd ~sock:(sock_path run_dir n) workload ~seed ~warmup in
    let before = Daemon.metrics h in
    let t = Stats.since t0 in
    let f = Calib.factor ((cal +. Calib.measure cal_ns) /. 2.) in
    setup_runs := (t *. f /. 1e9) :: !setup_runs;
    (h, before)
  in
  let throwaway n =
    let h, _ = set_up n in
    Daemon.stop h
  in
  for n = 1 to setups_before - 1 do
    throwaway n
  done;
  let h, before = set_up setups_before in
  Gen.set_triggers h.Daemon.gens.(0) (Some (trigger_gap workload));
  (* The timed phase is a train of [slot_ns] slices of load, each closed
     by draining both sessions and timing the calibration kernel
     ([Calib]) on the now idle core.  A slice's latencies, wall time and
     daemon CPU time are scaled by the mean calibration factor of the two
     kernel runs around it. *)
  let cal = ref (Calib.measure cal_ns) in
  let slots = ref [] in
  let t_start = Stats.now () in
  let t_end = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  while Stats.now () < t_end do
    let t0 = Stats.now () in
    let slot_end = Int64.add t0 (Int64.of_float slot_ns) in
    let cpu0 = Daemon.cpu_ns h.Daemon.pid in
    let lat = Stats.samples () and stall = Stats.samples () in
    let ops = ref 0 in
    Daemon.drive h
      ~source:(fun c -> if Stats.now () >= slot_end then None else Some (Gen.next h.Daemon.gens.(c.Daemon.sid)))
      ~on_reply:(fun _ g lat_ns _ ->
        incr ops;
        Stats.add (if g.Gen.trigger then stall else lat) (Int64.to_float lat_ns));
    let wall = Stats.since t0 in
    let cpu = Daemon.cpu_ns h.Daemon.pid -. cpu0 in
    let cal' = Calib.measure cal_ns in
    let f = Calib.factor ((!cal +. cal') /. 2.) in
    cal := cal';
    slots := { s_at = Int64.to_float (Int64.sub t0 t_start); s_ops = !ops; s_raw_wall = wall; s_wall = wall *. f; s_cpu = cpu *. f;
               s_factor = f; s_lat = Array.map (fun x -> x *. f) (Stats.to_sorted lat);
               s_stall = Array.map (fun x -> x *. f) (Stats.to_sorted stall) } :: !slots
  done;
  let slots = List.rev !slots in
  let after = Daemon.metrics h in
  let rss_mib = Daemon.peak_rss_mib h.Daemon.pid in
  Daemon.stop h;
  for n = setups_before + 1 to setups_before + setups_after do
    throwaway n
  done;
  (* Headlines are medians over one-second windows of slots, so a burst
     of host noise moves a few windows, not the run's figure. *)
  let nwin = max 1 (int_of_float seconds) in
  let win_of s = min (nwin - 1) (int_of_float (s.s_at /. (seconds *. 1e9 /. float_of_int nwin))) in
  let windows =
    List.init nwin (fun w ->
        let ss = List.filter (fun s -> win_of s = w) slots in
        let sum f = List.fold_left (fun a s -> a +. f s) 0. ss in
        let ops = sum (fun s -> float_of_int s.s_ops) in
        let lat = Array.concat (List.map (fun s -> s.s_lat) ss) in
        Array.sort Float.compare lat;
        {
          w_ops_per_s = Stats.ratio ops (sum (fun s -> s.s_wall) /. 1e9);
          w_p50_us = Stats.quantile lat 0.5 /. 1e3;
          w_p99_us = Stats.quantile lat 0.99 /. 1e3;
          w_cpu_us_per_op = Stats.ratio (sum (fun s -> s.s_cpu) /. 1e3) ops;
          w_factor = Stats.ratio (sum (fun s -> s.s_factor)) (float_of_int (List.length ss));
          w_raw_ops_per_s = Stats.ratio ops (sum (fun s -> s.s_raw_wall) /. 1e9);
        })
  in
  let stall = Array.concat (List.map (fun s -> s.s_stall) slots) in
  Array.sort Float.compare stall;
  let med f = Stats.median (List.map f windows) in
  {
    ops_per_s = med (fun w -> w.w_ops_per_s);
    op_p50_us = med (fun w -> w.w_p50_us);
    op_p99_us = med (fun w -> w.w_p99_us);
    stall_p50_ms = Stats.quantile stall 0.5 /. 1e6;
    stall_p90_ms = Stats.quantile stall 0.9 /. 1e6;
    cpu_us_per_op = med (fun w -> w.w_cpu_us_per_op);
    rss_mib;
    setup_s = Stats.median !setup_runs;
    setup_runs = List.rev !setup_runs;
    replies = List.fold_left (fun a s -> a + s.s_ops) 0 slots;
    stalls = Array.length stall;
    windows;
    before;
    after;
  }
