(* Crash-consistency study driver: sweep the bounded/targeted/recovery
   crash-point space, replay one crash point by key, or minimize a
   diverging workload.  The fixture mode (--no-barriers) models a device
   that ignores flush barriers — the seeded divergence the engine must
   detect, used to validate the oracle end to end. *)

open Cmdliner
module Engine = Rae_crash.Engine
module Oracle = Rae_crash.Oracle

let fixture_ops =
  [ Rae_vfs.Op.Create (Rae_vfs.Path.parse_exn "/a", 0o644); Rae_vfs.Op.Sync ]

let print_stats name stats =
  Format.printf "%-18s %a@." name Engine.pp_stats stats;
  List.iter
    (fun d ->
      Format.printf "  diverging %s at %s: %s@." d.Engine.d_label d.Engine.d_key
        d.Engine.d_reason)
    (List.rev stats.Engine.s_diverging)

let run quick bounded_max targeted_count bundle_dir no_barriers repro_key minimize =
  let cfg =
    {
      Engine.default_config with
      Engine.bundle_dir;
      prefix_stride = (if quick then 2 else 1);
      samples_per_epoch = (if quick then 6 else 12);
    }
  in
  match (repro_key, minimize) with
  | Some key, _ ->
      let ops = fixture_ops in
      (match Engine.repro ~barriers:(not no_barriers) ~key ops with
      | Ok o ->
          Format.printf "%s -> %s@." o.Oracle.o_key (Oracle.verdict_to_string o.Oracle.o_verdict);
          if Oracle.is_diverging o then 1 else 0
      | Error msg ->
          Format.eprintf "repro failed: %s@." msg;
          2)
  | None, true -> (
      let ops = fixture_ops in
      match Engine.minimize ~cfg ~barriers:(not no_barriers) ops with
      | Some min_ops ->
          Format.printf "minimized to %d op(s): %s@." (List.length min_ops)
            (Engine.render_ops min_ops);
          0
      | None ->
          Format.printf "workload never diverges; nothing to minimize@.";
          0)
  | None, false ->
      let stats = ref Engine.empty_stats in
      let add name s =
        print_stats name s;
        stats := Engine.merge !stats s
      in
      if no_barriers then
        add "fixture" (Engine.sweep_ops ~cfg ~barriers:false ~label:"fixture" fixture_ops)
      else begin
        add "bounded" (Engine.sweep_bounded ~cfg ~max_workloads:bounded_max ());
        add "targeted"
          (Engine.sweep_targeted ~cfg ~count:targeted_count
             ~seeds:(if quick then [ 1L ] else [ 1L; 2L ])
             ());
        add "recovery-cold" (Engine.sweep_recovery ~cfg ~ckpt:false ());
        add "recovery-ckpt" (Engine.sweep_recovery ~cfg ~ckpt:true ());
        add "recovery-chunk" (Engine.sweep_recovery ~cfg ~journal_len:16 ~ckpt:false ())
      end;
      let s = !stats in
      Format.printf "total              %a@." Engine.pp_stats s;
      if s.Engine.s_diverging = [] then 0 else 1

let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Thinned sweep (CI budget).")

let bounded_max =
  Arg.(value & opt int 24 & info [ "bounded" ] ~docv:"N" ~doc:"Bounded workloads to sweep.")

let targeted_count =
  Arg.(value & opt int 40 & info [ "count" ] ~docv:"N" ~doc:"Ops per targeted workload.")

let bundle_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundle-dir" ] ~docv:"DIR" ~doc:"Write a postmortem bundle per divergence.")

let no_barriers =
  Arg.(
    value & flag
    & info [ "no-barriers" ]
        ~doc:"Enumerate as if the device ignored flush barriers (seeded-divergence fixture).")

let repro_key =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro" ] ~docv:"KEY" ~doc:"Replay one crash point of the fixture workload by key.")

let minimize =
  Arg.(value & flag & info [ "minimize" ] ~doc:"Greedy-minimize the fixture workload.")

let cmd =
  Cmd.v
    (Cmd.info "crashstudy_rfs"
       ~doc:"B3-style crash-consistency sweep over rfs (bounded, targeted, crash-mid-recovery)")
    Term.(
      const run $ quick $ bounded_max $ targeted_count $ bundle_dir $ no_barriers $ repro_key
      $ minimize)

let () = exit (Cmd.eval' cmd)
