(* The rule set.  Every rule consumes the per-unit analyses plus the
   interprocedural effect signatures ([Effects]) computed once per run —
   reachability questions are answered from the fixpoint, not re-walked
   per rule.

   1. shadow-purity   — no write-path sink reachable from shadow/fsck
                        read-path definitions (paper: the shadow never
                        writes to disk).  Effect-based: a root unit is
                        impure iff a definition's effect signature
                        records a path to a purity sink.
   2. no-swallow      — no catch-all exception handler that can absorb a
                        runtime-error signal (Shadow.Violation, detector
                        bug exceptions), using the transitive may-raise
                        sets from the fixpoint.
   3. persist-order   — SquirrelFS-style persistence typestate: raw
                        block writes must be dominated by an open
                        journal transaction and destage only after the
                        commit; mid-transaction flushes reorder the
                        barrier (Order.persist).
   4. domain-safety   — unguarded mutable cells written by code on the
                        planned parallel regions (Domsafety).
   5. phase-order     — the recovery phases must be entered in the
                        declared order on every path, including the
                        seeded fallback (Order.phases).
   6. layering        — the module-dependency DAG, checked from compiled
                        import tables rather than dune stanzas.
   7. poly-compare    — no polymorphic compare/equality on on-disk
                        structures, where structural compare hides
                        format bugs.
   8. partial-call    — no partial stdlib calls (List.hd, Option.get,
                        unhandled Hashtbl.find) in library code.
   9. poly-hash       — no polymorphic [Stdlib.Hashtbl] table function
                        and no [Hashtbl.hash] on the serving path, where
                        caml_hash and compare_val cost more than the
                        lookup (the tables use [Rae_util.Tbl]). *)

let rule_purity = "shadow-purity"
let rule_swallow = "no-swallow"
let rule_persist = Order.persist_rule_name
let rule_domain = Domsafety.rule_name
let rule_phase = Order.phase_rule_name
let rule_layering = "layering"
let rule_polycmp = "poly-compare"
let rule_partial = "partial-call"
let rule_polyhash = "poly-hash"

let all_rules =
  [
    rule_purity; rule_swallow; rule_persist; rule_domain; rule_phase; rule_layering; rule_polycmp;
    rule_partial; rule_polyhash;
  ]

let finding ~rule ~file ~line ~key message =
  { Finding.rule; severity = Finding.Error; file; line; message; key }

(* ---- 1. shadow purity ---- *)

let purity (cfg : Lintcfg.t) analyses (eff : Effects.t) =
  let findings = ref [] in
  List.iter
    (fun (a : Analysis.unit_analysis) ->
      if List.exists (fun p -> Lintcfg.unit_matches p a.Analysis.a_unit) cfg.Lintcfg.purity_roots
      then begin
        (* All sinks any definition of this root unit can reach, each
           reported once, from the definition with the shortest witness
           chain (ties: first definition in source order). *)
        let sinks =
          List.sort_uniq String.compare
            (List.concat_map (fun (d : Analysis.def) -> Effects.sinks_of eff d.Analysis.d_name)
               a.Analysis.a_defs)
        in
        List.iter
          (fun sink ->
            let best =
              List.fold_left
                (fun acc (d : Analysis.def) ->
                  match Effects.sink_distance eff d.Analysis.d_name sink with
                  | None -> acc
                  | Some dist -> (
                      match acc with
                      | Some (_, bd) when bd <= dist -> acc
                      | _ -> Some (d, dist)))
                None a.Analysis.a_defs
            in
            match best with
            | None -> ()
            | Some (d, _) ->
                let chain = Effects.sink_chain eff d.Analysis.d_name sink in
                findings :=
                  finding ~rule:rule_purity ~file:d.Analysis.d_loc.Analysis.l_file
                    ~line:d.Analysis.d_loc.Analysis.l_line ~key:sink
                    (Printf.sprintf "write-path sink %s is reachable from read-path unit %s: %s"
                       sink a.Analysis.a_unit
                       (String.concat " -> " chain))
                  :: !findings)
          sinks
      end)
    analyses;
  List.rev !findings

(* ---- 2. no swallowed runtime-error signals ---- *)

let swallow (cfg : Lintcfg.t) analyses (eff : Effects.t) =
  let findings = ref [] in
  List.iter
    (fun (a : Analysis.unit_analysis) ->
      if not (Lintcfg.is_exempt cfg a.Analysis.a_unit) then
        List.iter
          (fun (t : Analysis.try_site) ->
            if t.Analysis.t_catchall then begin
              let direct =
                List.filter
                  (fun s -> List.mem s cfg.Lintcfg.signal_exceptions)
                  t.Analysis.t_body_raises
              in
              let via_call =
                List.filter_map
                  (fun (r, _) ->
                    let raised = Effects.may_raise eff r in
                    match
                      List.find_opt (fun s -> List.mem s raised) cfg.Lintcfg.signal_exceptions
                    with
                    | Some s -> Some (s, r)
                    | None -> None)
                  t.Analysis.t_body_refs
              in
              match (direct, via_call) with
              | [], [] -> ()
              | s :: _, _ ->
                  findings :=
                    finding ~rule:rule_swallow ~file:t.Analysis.t_loc.Analysis.l_file
                      ~line:t.Analysis.t_loc.Analysis.l_line ~key:s
                      (Printf.sprintf
                         "catch-all handler absorbs runtime-error signal %s raised in the guarded \
                          body; match the intended exceptions explicitly"
                         s)
                    :: !findings
              | [], (s, via) :: _ ->
                  findings :=
                    finding ~rule:rule_swallow ~file:t.Analysis.t_loc.Analysis.l_file
                      ~line:t.Analysis.t_loc.Analysis.l_line ~key:s
                      (Printf.sprintf
                         "catch-all handler can absorb runtime-error signal %s (reachable via %s); \
                          match the intended exceptions explicitly"
                         s via)
                    :: !findings
            end)
          a.Analysis.a_tries)
    analyses;
  List.rev !findings

(* ---- 6. layering ---- *)

let layering (cfg : Lintcfg.t) (units : Cmt_load.unit_info list) =
  let known lib = List.mem_assoc lib cfg.Lintcfg.libraries in
  let findings = ref [] in
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      match u.Cmt_load.ui_library with
      | Some lib when known lib ->
          let allowed = match List.assoc_opt lib cfg.Lintcfg.libraries with Some l -> l | None -> [] in
          let bad =
            List.sort_uniq String.compare
              (List.filter_map
                 (fun import ->
                   match Cmt_load.library_of_unit import with
                   | Some ilib when known ilib && ilib <> lib && not (List.mem ilib allowed) ->
                       Some ilib
                   | _ -> None)
                 u.Cmt_load.ui_imports)
          in
          List.iter
            (fun ilib ->
              findings :=
                finding ~rule:rule_layering ~file:u.Cmt_load.ui_source ~line:1 ~key:ilib
                  (Printf.sprintf
                     "library %s must not depend on library %s (unit %s imports it); the module DAG \
                      forbids this edge"
                     lib ilib u.Cmt_load.ui_unit)
                :: !findings)
            bad
      | _ -> ())
    units;
  List.rev !findings

(* ---- 7. polymorphic compare on on-disk structures ---- *)

let poly_ops =
  [
    "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.<"; "Stdlib.>"; "Stdlib.<="; "Stdlib.>=";
    "Stdlib.min"; "Stdlib.max";
  ]

let polycmp (cfg : Lintcfg.t) analyses =
  let findings = ref [] in
  List.iter
    (fun (a : Analysis.unit_analysis) ->
      List.iter
        (fun (h : Analysis.ident_hit) ->
          if List.mem h.Analysis.h_path poly_ops then
            match h.Analysis.h_arg_type with
            | Some ty when List.mem ty cfg.Lintcfg.ondisk_types ->
                let op =
                  match String.rindex_opt h.Analysis.h_path '.' with
                  | Some i ->
                      String.sub h.Analysis.h_path (i + 1) (String.length h.Analysis.h_path - i - 1)
                  | None -> h.Analysis.h_path
                in
                findings :=
                  finding ~rule:rule_polycmp ~file:h.Analysis.h_loc.Analysis.l_file
                    ~line:h.Analysis.h_loc.Analysis.l_line ~key:ty
                    (Printf.sprintf
                       "polymorphic %s on on-disk structure %s; structural compare hides format \
                        bugs — use a field-aware equality"
                       op ty)
                  :: !findings
            | _ -> ())
        a.Analysis.a_idents)
    analyses;
  List.rev !findings

(* ---- 8. partial stdlib calls ---- *)

let partial (cfg : Lintcfg.t) analyses =
  let findings = ref [] in
  List.iter
    (fun (a : Analysis.unit_analysis) ->
      if not (Lintcfg.is_exempt cfg a.Analysis.a_unit) then
        let handled_ranges =
          List.filter_map
            (fun (t : Analysis.try_site) ->
              if t.Analysis.t_handles_notfound then
                Some (t.Analysis.t_body_first_line, t.Analysis.t_body_last_line)
              else None)
            a.Analysis.a_tries
        in
        let in_handled_range line =
          List.exists (fun (lo, hi) -> line >= lo && line <= hi) handled_ranges
        in
        List.iter
          (fun (h : Analysis.ident_hit) ->
            match List.assoc_opt h.Analysis.h_path cfg.Lintcfg.partial_fns with
            | None -> ()
            | Some suggestion ->
                let is_find = String.equal h.Analysis.h_path "Stdlib.Hashtbl.find" in
                if not (is_find && in_handled_range h.Analysis.h_loc.Analysis.l_line) then
                  findings :=
                    finding ~rule:rule_partial ~file:h.Analysis.h_loc.Analysis.l_file
                      ~line:h.Analysis.h_loc.Analysis.l_line ~key:h.Analysis.h_path
                      (Printf.sprintf "partial call %s; prefer %s" h.Analysis.h_path suggestion)
                    :: !findings)
          a.Analysis.a_idents)
    analyses;
  List.rev !findings

(* ---- 9. polymorphic hash tables on the serving path ---- *)

(* Every value of [Stdlib.Hashtbl] outside its functors: the generic
   table functions, which hash with caml_hash and compare keys with
   compare_val, and the hashes themselves.  A [Hashtbl.Make] instance's
   functions read as "Stdlib.Hashtbl.Make.f" (Analysis). *)
let is_poly_hash path =
  String.starts_with ~prefix:"Stdlib.Hashtbl." path
  && not (String.starts_with ~prefix:"Stdlib.Hashtbl.Make" path)

let polyhash (cfg : Lintcfg.t) analyses =
  let findings = ref [] in
  List.iter
    (fun (a : Analysis.unit_analysis) ->
      if List.exists (fun p -> Lintcfg.unit_matches p a.Analysis.a_unit) cfg.Lintcfg.poly_hash_units
      then
        List.iter
          (fun (h : Analysis.ident_hit) ->
            if is_poly_hash h.Analysis.h_path then
              findings :=
                finding ~rule:rule_polyhash ~file:h.Analysis.h_loc.Analysis.l_file
                  ~line:h.Analysis.h_loc.Analysis.l_line ~key:h.Analysis.h_path
                  (Printf.sprintf
                     "polymorphic %s on the serving path; use Rae_util.Tbl.Int, Rae_util.Tbl.Str \
                      or Hashtbl.Make over a monomorphic equal and hash"
                     h.Analysis.h_path)
                :: !findings)
          a.Analysis.a_idents)
    analyses;
  List.rev !findings

let run (cfg : Lintcfg.t) (units : Cmt_load.unit_info list) analyses graph (eff : Effects.t)
    (domain : Domsafety.region_report list) =
  purity cfg analyses eff
  @ swallow cfg analyses eff
  @ Order.persist cfg eff graph
  @ Domsafety.findings domain
  @ Order.phases cfg eff graph
  @ layering cfg units
  @ polycmp cfg analyses
  @ partial cfg analyses
  @ polyhash cfg analyses
