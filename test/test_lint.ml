(* End-to-end tests for rae_lint: run the engine over the deliberately
   broken fixture library (test/lint_fixtures) and assert each rule
   fires at the expected file/line with the expected key, that the clean
   fixture stays clean, that the suppression baseline round-trips, and
   that the real tree under lib/ is lint-clean with an empty baseline. *)

open Rae_lint

(* The fixtures library plays the role of a read-path layer: it may see
   util/obs/vfs/block/format but not the journal, Bad_impure* units are
   purity roots, and Bad_swallow.Boom is the runtime-error signal.  The
   new rule families are aimed at their fixtures too: Bad_domain_escape
   and Bad_table_escape host parallel-region roots, Bad_phase_order a
   phase marker following the real declared phase order, and
   Bad_poly_hash is the one unit on the serving path. *)
let fixture_config =
  let d = Lintcfg.default in
  {
    d with
    Lintcfg.libraries =
      ("lint_fixtures", [ "util"; "obs"; "vfs"; "block"; "format" ]) :: d.Lintcfg.libraries;
    purity_roots = [ "Lint_fixtures.Bad_impure" ];
    signal_exceptions = [ "Lint_fixtures.Bad_swallow.Boom" ];
    domain_regions =
      ("fixture-fold", [ "Lint_fixtures.Bad_domain_escape.fold_entry" ])
      :: ("fixture-table", [ "Lint_fixtures.Bad_table_escape.fold_entry" ])
      :: d.Lintcfg.domain_regions;
    poly_hash_units = [ "Lint_fixtures.Bad_poly_hash" ];
    phase_protocols =
      ("Lint_fixtures.Bad_phase_order.phase", Lintcfg.default_phase_order) :: d.Lintcfg.phase_protocols;
  }

(* Tests run from _build/default/test; fall back for manual runs from
   the repo root. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let run_fixtures ?baseline () =
  match Engine.run ~config:fixture_config ?baseline ~dirs:[ fixture_dir ] () with
  | Error msg -> Alcotest.failf "fixture scan failed: %s" msg
  | Ok r -> r

let in_file name (f : Finding.t) = Filename.basename f.Finding.file = name
let with_rule rule (f : Finding.t) = String.equal f.Finding.rule rule

let hits rule file (r : Engine.result) =
  List.filter (fun f -> with_rule rule f && in_file file f) r.Engine.kept

let lines_of fs = List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.line) fs)
let keys_of fs = List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.key) fs)

(* ---- shadow-purity ---- *)

let test_purity_direct () =
  let r = run_fixtures () in
  match hits "shadow-purity" "bad_impure.ml" r with
  | [ f ] ->
      Alcotest.(check string) "sink key" "Rae_block.Device.write" f.Finding.key;
      Alcotest.(check int) "at scribble's definition" 6 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one purity finding, got %d" (List.length fs)

let test_purity_transitive () =
  let r = run_fixtures () in
  match hits "shadow-purity" "bad_impure_indirect.ml" r with
  | [ f ] ->
      Alcotest.(check string) "sink key" "Rae_block.Device.write" f.Finding.key;
      Alcotest.(check int) "at sneaky's definition" 4 f.Finding.line;
      Alcotest.(check bool) "chain shows the hop through Bad_impure" true
        (let has s sub =
           let n = String.length sub in
           let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has f.Finding.message "sneaky" && has f.Finding.message "scribble")
  | fs -> Alcotest.failf "expected exactly one transitive finding, got %d" (List.length fs)

(* ---- no-swallow ---- *)

let test_swallow () =
  let r = run_fixtures () in
  let fs = hits "no-swallow" "bad_swallow.ml" r in
  Alcotest.(check (list int))
    "inline raise, call-reachable raise, match-exception" [ 9; 12; 15 ] (lines_of fs);
  Alcotest.(check (list string)) "all carry the signal key" [ "Lint_fixtures.Bad_swallow.Boom" ]
    (keys_of fs)

(* ---- persist-order ---- *)

let test_persist_bypass () =
  let r = run_fixtures () in
  match hits "persist-order" "bad_journal_bypass.ml" r with
  | [ f ] ->
      Alcotest.(check string) "bypass key" "journal-bypass:Rae_block.Device.write" f.Finding.key;
      Alcotest.(check int) "at the raw write" 5 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one bypass finding, got %d" (List.length fs)

let test_persist_destage_order () =
  let r = run_fixtures () in
  let fs = hits "persist-order" "bad_destage_order.ml" r in
  Alcotest.(check (list string))
    "destage and barrier reorder both flagged"
    [ "destage-before-commit:Rae_block.Device.write"; "flush-before-commit:Rae_block.Device.flush" ]
    (keys_of fs);
  Alcotest.(check (list int)) "at the write and the flush" [ 10; 11 ] (lines_of fs)

(* ---- domain-safety ---- *)

let test_domain_escape () =
  let r = run_fixtures () in
  match hits "domain-safety" "bad_domain_escape.ml" r with
  | [ f ] ->
      Alcotest.(check string) "region:cell key"
        "fixture-fold:Lint_fixtures.Bad_domain_escape.shared_hits" f.Finding.key;
      Alcotest.(check int) "at the unguarded write" 6 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one domain-safety finding, got %d" (List.length fs)

(* The int table is a container the pass follows: a region root that
   writes a global one is an escape. *)
let test_domain_escape_table () =
  let r = run_fixtures () in
  match hits "domain-safety" "bad_table_escape.ml" r with
  | [ f ] ->
      Alcotest.(check string) "region:cell key"
        "fixture-table:Lint_fixtures.Bad_table_escape.seen" f.Finding.key;
      Alcotest.(check int) "at the unguarded write" 6 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one domain-safety finding, got %d" (List.length fs)

let test_domain_report () =
  let r = run_fixtures () in
  let json = Rae_obs.Jsonx.to_string (Domsafety.to_json r.Engine.domain) in
  let parsed = Rae_obs.Jsonx.parse_exn json in
  let regions =
    match Rae_obs.Jsonx.(Option.bind (member "regions" parsed) to_list_opt) with
    | Some l -> l
    | None -> Alcotest.fail "domain report has no regions list"
  in
  (* The fixture region is present, and its one cell is classified as a
     finding (the machine-readable face of test_domain_escape). *)
  let fixture =
    List.find_opt
      (fun reg -> Rae_obs.Jsonx.(Option.bind (member "region" reg) to_str_opt) = Some "fixture-fold")
      regions
  in
  match fixture with
  | None -> Alcotest.fail "fixture-fold region missing from the report"
  | Some reg -> (
      match Rae_obs.Jsonx.(Option.bind (member "cells" reg) to_list_opt) with
      | Some [ cell ] ->
          Alcotest.(check (option string))
            "cell named" (Some "Lint_fixtures.Bad_domain_escape.shared_hits")
            Rae_obs.Jsonx.(Option.bind (member "cell" cell) to_str_opt);
          Alcotest.(check (option string))
            "classified as a finding" (Some "finding")
            Rae_obs.Jsonx.(Option.bind (member "class" cell) to_str_opt)
      | _ -> Alcotest.fail "expected exactly one catalogued cell in fixture-fold")

(* ---- phase-order ---- *)

let test_phase_order () =
  let r = run_fixtures () in
  let fs = hits "phase-order" "bad_phase_order.ml" r in
  Alcotest.(check (list string))
    "out-of-order phase and unknown phase"
    [ "phase-order:shadow-attach"; "unknown-phase:warp-core" ]
    (keys_of fs);
  Alcotest.(check (list int)) "at the offending marker calls" [ 11; 12 ] (lines_of fs)

(* The lint config declares the phase order as data (the lint library
   must not depend on rae_core); this pins it to the controller's
   actual phase_names so they cannot drift apart. *)
let test_phase_order_matches_controller () =
  Alcotest.(check (list string))
    "Lintcfg.default_phase_order = Controller.phase_names" Rae_core.Controller.phase_names
    Lintcfg.default_phase_order

(* ---- layering ---- *)

let test_layering () =
  let r = run_fixtures () in
  match hits "layering" "bad_layering.ml" r with
  | [ f ] -> Alcotest.(check string) "forbidden library" "journal" f.Finding.key
  | fs -> Alcotest.failf "expected exactly one layering finding, got %d" (List.length fs)

(* ---- poly-compare ---- *)

let test_poly_compare () =
  let r = run_fixtures () in
  let fs = hits "poly-compare" "bad_poly_compare.ml" r in
  Alcotest.(check (list int)) "(=), compare, List.sort compare" [ 8; 10; 12 ] (lines_of fs);
  Alcotest.(check (list string)) "on-disk types named"
    [ "Rae_format.Dirent.entry"; "Rae_format.Inode.t"; "Rae_format.Superblock.t" ]
    (keys_of fs)

(* ---- partial-call ---- *)

let test_partial () =
  let r = run_fixtures () in
  let fs = hits "partial-call" "bad_partial.ml" r in
  Alcotest.(check (list int)) "hd, tl, nth, get, find" [ 4; 6; 8; 10; 12 ] (lines_of fs);
  Alcotest.(check (list string)) "partial functions named"
    [
      "Stdlib.Hashtbl.find"; "Stdlib.List.hd"; "Stdlib.List.nth"; "Stdlib.List.tl";
      "Stdlib.Option.get";
    ]
    (keys_of fs)

(* ---- poly-hash ---- *)

let test_poly_hash () =
  let r = run_fixtures () in
  let fs = hits "poly-hash" "bad_poly_hash.ml" r in
  Alcotest.(check (list int)) "create, replace + find_opt, hash" [ 5; 7; 9 ] (lines_of fs);
  Alcotest.(check (list string)) "generic functions named"
    [ "Stdlib.Hashtbl.create"; "Stdlib.Hashtbl.find_opt"; "Stdlib.Hashtbl.hash"; "Stdlib.Hashtbl.replace" ]
    (keys_of fs)

(* ---- negative fixture ---- *)

let test_clean_fixture () =
  let r = run_fixtures () in
  let fs = List.filter (in_file "clean_ok.ml") r.Engine.kept in
  Alcotest.(check int) "no rule fires on clean_ok.ml" 0 (List.length fs)

(* ---- suppression baseline ---- *)

let test_baseline_roundtrip () =
  let r = run_fixtures () in
  Alcotest.(check bool) "fixtures do produce findings" true (r.Engine.kept <> []);
  let entries, bad = Baseline.parse (Baseline.to_string (Baseline.of_findings r.Engine.kept)) in
  Alcotest.(check (list string)) "serialized baseline has no malformed lines" [] bad;
  let r' = run_fixtures ~baseline:entries () in
  Alcotest.(check int) "every finding suppressed" 0 (List.length r'.Engine.kept);
  Alcotest.(check int) "nothing hidden twice or lost" (List.length r.Engine.kept)
    (List.length r'.Engine.hidden);
  Alcotest.(check int) "no unused entries" 0 (List.length r'.Engine.unused);
  Alcotest.(check bool) "suppressed run gates green" false (Engine.has_errors r')

let test_baseline_unused_and_malformed () =
  let stale = { Baseline.e_rule = "no-swallow"; e_file = "gone.ml"; e_key = "X" } in
  let kept, suppressed, unused = Baseline.apply [ stale ] [] in
  Alcotest.(check int) "nothing kept" 0 (List.length kept);
  Alcotest.(check int) "nothing suppressed" 0 (List.length suppressed);
  Alcotest.(check bool) "stale entry reported unused" true (unused = [ stale ]);
  let entries, bad = Baseline.parse "# comment\nrule only one field\n" in
  Alcotest.(check int) "malformed line rejected, not parsed" 0 (List.length entries);
  Alcotest.(check (list string)) "malformed line reported" [ "rule only one field" ] bad

(* ---- observability + JSON surface ---- *)

let test_stats_and_metrics () =
  let r = run_fixtures () in
  let s = r.Engine.stats in
  Alcotest.(check bool) "scanned some cmts" true (s.Engine.files_scanned > 0);
  Alcotest.(check int) "all nine rules ran" 9 s.Engine.rules_run;
  Alcotest.(check int) "by_rule covers every rule" 9 (List.length s.Engine.by_rule);
  let registry = Rae_obs.Metrics.create () in
  Engine.register_obs registry s;
  let prom = Rae_obs.Metrics.to_prometheus registry in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length prom && (String.sub prom i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "findings counter exported" true (has "rae_lint_findings");
  Alcotest.(check bool) "wall-time gauge exported" true (has "rae_lint_wall_seconds");
  Alcotest.(check bool) "per-rule counter exported" true (has "rae_lint_findings_shadow_purity");
  let json = Engine.to_json r in
  Alcotest.(check bool) "json has stats" true (String.length json > 2 && json.[0] = '{');
  Alcotest.(check bool) "json names findings" true
    (let n = String.length "\"findings\"" in
     let rec go i = i + n <= String.length json && (String.sub json i n = "\"findings\"" || go (i + 1)) in
     go 0)

(* ---- cmt discovery ---- *)

let test_find_cmts_skips_native () =
  (* ocamlopt leaves a stray duplicate .cmt under .objs/native; only
     dune's .objs/byte copy may be loaded, or the unit counts twice. *)
  let root = Filename.temp_file "rae_lint_cmts" "" in
  Sys.remove root;
  let objs = Filename.concat root ".fixture.objs" in
  let byte_dir = Filename.concat objs "byte" and native_dir = Filename.concat objs "native" in
  List.iter (fun d -> Sys.mkdir d 0o755) [ root; objs; byte_dir; native_dir ];
  let byte = Filename.concat byte_dir "fixture__M.cmt"
  and native = Filename.concat native_dir "fixture__M.cmt" in
  List.iter (fun f -> close_out (open_out f)) [ byte; native ];
  let found = Cmt_load.find_cmts [ root ] in
  List.iter Sys.remove [ byte; native ];
  List.iter Sys.rmdir [ byte_dir; native_dir; objs; root ];
  Alcotest.(check (list string)) "only the byte copy" [ byte ] found

(* ---- the real tree ---- *)

let test_repo_is_clean () =
  (* When run under `dune runtest` the lib cmts exist (the @lint rule
     builds them); when the test binary is run in isolation they may
     not — treat that as a skip, not a failure. *)
  match Engine.run ~dirs:[ Filename.concat ".." "lib" ] () with
  | Error _ -> ()
  | Ok r ->
      List.iter (fun f -> Printf.eprintf "unexpected: %s\n" (Finding.to_human f)) r.Engine.kept;
      Alcotest.(check int) "lib/ is lint-clean with an empty baseline" 0
        (List.length r.Engine.kept)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "shadow-purity direct" `Quick test_purity_direct;
          Alcotest.test_case "shadow-purity transitive" `Quick test_purity_transitive;
          Alcotest.test_case "no-swallow" `Quick test_swallow;
          Alcotest.test_case "persist-order journal bypass" `Quick test_persist_bypass;
          Alcotest.test_case "persist-order destage/flush reorder" `Quick test_persist_destage_order;
          Alcotest.test_case "domain-safety escape" `Quick test_domain_escape;
          Alcotest.test_case "domain-safety escape through an int table" `Quick
            test_domain_escape_table;
          Alcotest.test_case "domain-safety report" `Quick test_domain_report;
          Alcotest.test_case "phase-order" `Quick test_phase_order;
          Alcotest.test_case "phase order pinned to controller" `Quick
            test_phase_order_matches_controller;
          Alcotest.test_case "layering" `Quick test_layering;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "partial-call" `Quick test_partial;
          Alcotest.test_case "poly-hash" `Quick test_poly_hash;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round-trip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "unused + malformed" `Quick test_baseline_unused_and_malformed;
        ] );
      ( "surface",
        [
          Alcotest.test_case "stats, metrics, json" `Quick test_stats_and_metrics;
          Alcotest.test_case "stray native cmts skipped" `Quick test_find_cmts_skips_native;
          Alcotest.test_case "repo self-scan" `Quick test_repo_is_clean;
        ] );
    ]
