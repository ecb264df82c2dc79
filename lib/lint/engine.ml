(* Tie the pieces together: scan .cmt trees, run every rule, apply the
   suppression baseline, and expose run statistics to the rae_obs
   metrics registry so `lint_rfs --metrics` composes with the rest of
   the observability surface. *)

type stats = {
  files_scanned : int;
  units_loaded : int;
  load_skipped : int;
  rules_run : int;
  findings : int;  (* unsuppressed *)
  suppressed : int;
  unused_baseline : int;
  by_rule : (string * int) list;  (* unsuppressed, every rule present *)
  wall_s : float;
}

type result = {
  kept : Finding.t list;  (* unsuppressed, sorted by position *)
  hidden : Finding.t list;  (* suppressed by the baseline *)
  unused : Baseline.entry list;
  skipped : string list;  (* unreadable cmt files *)
  domain : Domsafety.region_report list;  (* full domain-safety catalogue *)
  stats : stats;
}

let run ?(config = Lintcfg.default) ?(baseline = Baseline.empty) ~dirs () =
  let t0 = Rae_obs.Clock.now_ns () in
  let load = Cmt_load.scan dirs in
  if load.Cmt_load.units = [] then
    Error
      (Printf.sprintf "no readable .cmt files under %s (build first: dune build)"
         (String.concat " " dirs))
  else begin
    let analyses =
      List.filter_map
        (fun (u : Cmt_load.unit_info) ->
          Option.map
            (fun str ->
              Analysis.analyze_unit ~unit:u.Cmt_load.ui_unit ~source:u.Cmt_load.ui_source str)
            u.Cmt_load.ui_structure)
        load.Cmt_load.units
    in
    let graph = Analysis.build_graph analyses in
    let eff = Effects.infer config analyses graph in
    let domain = Domsafety.analyze config analyses graph in
    let findings = Rules.run config load.Cmt_load.units analyses graph eff domain in
    let kept, hidden, unused = Baseline.apply baseline findings in
    let kept = List.sort Finding.compare_by_pos kept in
    let by_rule =
      List.map
        (fun r ->
          (r, List.length (List.filter (fun (f : Finding.t) -> f.Finding.rule = r) kept)))
        Rules.all_rules
    in
    Ok
      {
        kept;
        hidden;
        unused;
        skipped = load.Cmt_load.skipped;
        domain;
        stats =
          {
            files_scanned = load.Cmt_load.files;
            units_loaded = List.length load.Cmt_load.units;
            load_skipped = List.length load.Cmt_load.skipped;
            rules_run = List.length Rules.all_rules;
            findings = List.length kept;
            suppressed = List.length hidden;
            unused_baseline = List.length unused;
            by_rule;
            wall_s = Int64.to_float (Int64.sub (Rae_obs.Clock.now_ns ()) t0) /. 1e9;
          };
      }
  end

let has_errors result =
  List.exists (fun (f : Finding.t) -> f.Finding.severity = Finding.Error) result.kept

(* ---- rae_obs integration ---- *)

let register_obs registry (s : stats) =
  let open Rae_obs.Metrics in
  register_counter registry ~help:"cmt files scanned by the last lint run" "rae_lint_files_scanned"
    (fun () -> s.files_scanned);
  register_counter registry ~help:"compilation units analyzed" "rae_lint_units" (fun () ->
      s.units_loaded);
  register_counter registry ~help:"lint rules run" "rae_lint_rules" (fun () -> s.rules_run);
  register_counter registry ~help:"unsuppressed findings" "rae_lint_findings" (fun () -> s.findings);
  register_counter registry ~help:"findings suppressed by the baseline" "rae_lint_suppressed"
    (fun () -> s.suppressed);
  register_counter registry ~help:"baseline entries that matched nothing" "rae_lint_unused_baseline"
    (fun () -> s.unused_baseline);
  register_gauge registry ~help:"lint wall time (seconds, CPU clock)" "rae_lint_wall_seconds"
    (fun () -> s.wall_s);
  List.iter
    (fun (rule, n) ->
      register_counter registry
        ~help:(Printf.sprintf "unsuppressed findings from rule %s" rule)
        (Printf.sprintf "rae_lint_findings_%s"
           (String.map (fun c -> if c = '-' then '_' else c) rule))
        (fun () -> n))
    s.by_rule

let stats_to_json (s : stats) =
  Printf.sprintf
    {|{"files_scanned":%d,"units_loaded":%d,"load_skipped":%d,"rules_run":%d,"findings":%d,"suppressed":%d,"unused_baseline":%d,"wall_s":%.6f,"by_rule":{%s}}|}
    s.files_scanned s.units_loaded s.load_skipped s.rules_run s.findings s.suppressed
    s.unused_baseline s.wall_s
    (String.concat ","
       (List.map (fun (r, n) -> Printf.sprintf {|"%s":%d|} (Rae_obs.Jsonx.escape r) n) s.by_rule))

let to_json result =
  Printf.sprintf {|{"stats":%s,"findings":[%s],"suppressed":[%s]}|}
    (stats_to_json result.stats)
    (String.concat "," (List.map Finding.to_json result.kept))
    (String.concat "," (List.map Finding.to_json result.hidden))
