(* Domain-safety pre-pass.

   For every region that runs, or may run, on a separate domain (the
   checkpoint fold, constrained replay, the domain pool, the crash
   sweep) we compute the set of definitions reachable from the region roots over
   the cross-unit call graph, then catalogue every mutable cell those
   definitions touch:

   - toplevel cells: definitions whose right-hand side is a mutable
     allocator (ref / Hashtbl.create / Buffer.create / Queue.create /
     Array.make / Bytes.create / Atomic.make);
   - mutable record fields, named through their record type
     ("Rae_obs.Events.t.clock").

   A reference to a toplevel cell that is not consumed by a recognized
   reader/mutator counts as an escape (the cell was passed somewhere the
   analysis cannot follow) and is treated as a write.

   Each (region, cell) pair is classified, in precedence order:
     guarded-declared      config [guarded_cells] prefix match
     domain-local-declared config [domain_local_cells] prefix match
     guarded-atomic        the cell IS an Atomic.t
     guarded-inferred      every in-region writing definition uses
                           Stdlib.Mutex or Stdlib.Atomic
     read-only             no in-region writes
     finding               anything else -> rule domain-safety fires

   The full catalogue — including the justifications for declared
   entries — is emitted as machine-readable JSON (domain_escape.json)
   so the multicore PR starts from a reviewed list, not a rescan. *)

let rule_name = "domain-safety"

type cell_class =
  | Guarded_declared of string
  | Domain_local_declared of string
  | Guarded_atomic
  | Guarded_inferred
  | Read_only
  | Escape

let class_label = function
  | Guarded_declared _ -> "guarded-declared"
  | Domain_local_declared _ -> "domain-local-declared"
  | Guarded_atomic -> "guarded-atomic"
  | Guarded_inferred -> "guarded-inferred"
  | Read_only -> "read-only"
  | Escape -> "finding"

type site = { s_def : string; s_loc : Analysis.loc; s_escape : bool }

type cell_report = {
  r_cell : string;
  r_kind : string;  (* ref / hashtbl / buffer / ... / field *)
  r_class : cell_class;
  r_writes : site list;
  r_reads : int;
}

type region_report = {
  g_region : string;
  g_roots : string list;
  g_defs : int;  (* reachable definitions *)
  g_cells : cell_report list;
}

(* Definitions reachable from the region roots. *)
let region_defs (graph : Analysis.graph) roots =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  Hashtbl.iter
    (fun name _ ->
      if List.exists (fun p -> Lintcfg.name_matches p name || String.starts_with ~prefix:p name) roots
      then begin
        Hashtbl.replace seen name ();
        Queue.add name queue
      end)
    graph.Analysis.nodes;
  while not (Queue.is_empty queue) do
    let name = Queue.take queue in
    match Hashtbl.find_opt graph.Analysis.nodes name with
    | None -> ()
    | Some d ->
        List.iter
          (fun (r, _) ->
            if Hashtbl.mem graph.Analysis.nodes r && not (Hashtbl.mem seen r) then begin
              Hashtbl.replace seen r ();
              Queue.add r queue
            end)
          d.Analysis.d_refs
  done;
  seen

let uses_sync_primitive (d : Analysis.def) =
  List.exists
    (fun (r, _) ->
      String.starts_with ~prefix:"Stdlib.Mutex." r || String.starts_with ~prefix:"Stdlib.Atomic." r)
    d.Analysis.d_refs

let analyze (cfg : Lintcfg.t) (analyses : Analysis.unit_analysis list) (graph : Analysis.graph) =
  (* cell name -> allocator kind, for toplevel cells *)
  let cell_kind name =
    match Hashtbl.find_opt graph.Analysis.nodes name with
    | Some d -> d.Analysis.d_cell
    | None -> None
  in
  (* def -> its recognized accesses *)
  let by_def : (string, Analysis.access list) Hashtbl.t = Hashtbl.create 512 in
  List.iter
    (fun (a : Analysis.unit_analysis) ->
      List.iter
        (fun (c : Analysis.access) ->
          Hashtbl.replace by_def c.Analysis.c_def
            (c :: Option.value ~default:[] (Hashtbl.find_opt by_def c.Analysis.c_def)))
        a.Analysis.a_accesses)
    analyses;
  List.map
    (fun (region, roots) ->
      let members = region_defs graph roots in
      (* (cell, kind) -> reads count, write sites *)
      let cells : (string, string * int ref * site list ref) Hashtbl.t = Hashtbl.create 64 in
      let touch name kind =
        match Hashtbl.find_opt cells name with
        | Some c -> c
        | None ->
            let c = (kind, ref 0, ref []) in
            Hashtbl.replace cells name c;
            c
      in
      Hashtbl.iter
        (fun def_name () ->
          match Hashtbl.find_opt graph.Analysis.nodes def_name with
          | None -> ()
          | Some d ->
              let accs = Option.value ~default:[] (Hashtbl.find_opt by_def def_name) in
              (* recognized reads/writes *)
              let consumed : (string, int) Hashtbl.t = Hashtbl.create 8 in
              List.iter
                (fun (c : Analysis.access) ->
                  let record name kind =
                    let _, reads, writes = touch name kind in
                    match c.Analysis.c_kind with
                    | Analysis.Acc_read -> incr reads
                    | Analysis.Acc_write ->
                        writes := { s_def = def_name; s_loc = c.Analysis.c_loc; s_escape = false } :: !writes
                  in
                  match c.Analysis.c_target with
                  | Analysis.T_field f -> record f "field"
                  | Analysis.T_global g -> (
                      match cell_kind g with
                      | Some kind ->
                          Hashtbl.replace consumed g
                            (1 + Option.value ~default:0 (Hashtbl.find_opt consumed g));
                          record g kind
                      | None -> ()))
                accs;
              (* escapes: references to a toplevel cell beyond the
                 recognized accesses *)
              let refcount : (string, int * Analysis.loc) Hashtbl.t = Hashtbl.create 8 in
              List.iter
                (fun (r, loc) ->
                  if cell_kind r <> None then
                    match Hashtbl.find_opt refcount r with
                    | Some (n, l) -> Hashtbl.replace refcount r (n + 1, l)
                    | None -> Hashtbl.replace refcount r (1, loc))
                d.Analysis.d_refs;
              Hashtbl.iter
                (fun cell (n, loc) ->
                  if n > Option.value ~default:0 (Hashtbl.find_opt consumed cell) then begin
                    let _, _, writes =
                      touch cell (Option.value ~default:"cell" (cell_kind cell))
                    in
                    writes := { s_def = def_name; s_loc = loc; s_escape = true } :: !writes
                  end)
                refcount)
        members;
      let reports =
        Hashtbl.fold
          (fun cell (kind, reads, writes) acc ->
            let cls =
              match Lintcfg.assoc_prefix cfg.Lintcfg.guarded_cells cell with
              | Some why -> Guarded_declared why
              | None -> (
                  match Lintcfg.assoc_prefix cfg.Lintcfg.domain_local_cells cell with
                  | Some why -> Domain_local_declared why
                  | None ->
                      if kind = "atomic" then Guarded_atomic
                      else if !writes = [] then Read_only
                      else if
                        List.for_all
                          (fun s ->
                            match Hashtbl.find_opt graph.Analysis.nodes s.s_def with
                            | Some d -> uses_sync_primitive d
                            | None -> false)
                          !writes
                      then Guarded_inferred
                      else Escape)
            in
            { r_cell = cell; r_kind = kind; r_class = cls; r_writes = List.rev !writes; r_reads = !reads }
            :: acc)
          cells []
      in
      {
        g_region = region;
        g_roots = roots;
        g_defs = Hashtbl.length members;
        g_cells = List.sort (fun a b -> String.compare a.r_cell b.r_cell) reports;
      })
    cfg.Lintcfg.domain_regions

(* ---- findings ---- *)

let findings reports =
  List.concat_map
    (fun g ->
      List.filter_map
        (fun c ->
          match (c.r_class, c.r_writes) with
          | Escape, w :: _ ->
              Some
                {
                  Finding.rule = rule_name;
                  severity = Finding.Error;
                  file = w.s_loc.Analysis.l_file;
                  line = w.s_loc.Analysis.l_line;
                  key = g.g_region ^ ":" ^ c.r_cell;
                  message =
                    Printf.sprintf
                      "mutable cell %s is written by %s on the %s parallel region without a \
                       guard%s; protect it with Mutex/Atomic, prove it domain-local \
                       (lintcfg.domain_local_cells), or restructure the state"
                      c.r_cell w.s_def g.g_region
                      (if w.s_escape then " (cell escapes to an unanalyzed callee)" else "");
                }
          | _ -> None)
        g.g_cells)
    reports

(* ---- domain_escape.json ---- *)

let to_json reports =
  let open Rae_obs.Jsonx in
  Obj
    [
      ("schema", Str "rae-domain-escape/1");
      ( "regions",
        List
          (List.map
             (fun g ->
               Obj
                 [
                   ("region", Str g.g_region);
                   ("roots", List (List.map (fun r -> Str r) g.g_roots));
                   ("reachable_defs", Int g.g_defs);
                   ( "cells",
                     List
                       (List.map
                          (fun c ->
                            Obj
                              ([
                                 ("cell", Str c.r_cell);
                                 ("kind", Str c.r_kind);
                                 ("class", Str (class_label c.r_class));
                               ]
                              @ (match c.r_class with
                                | Guarded_declared why | Domain_local_declared why ->
                                    [ ("why", Str why) ]
                                | _ -> [])
                              @ [
                                  ("reads", Int c.r_reads);
                                  ( "writes",
                                    List
                                      (List.map
                                         (fun s ->
                                           Obj
                                             [
                                               ("def", Str s.s_def);
                                               ("file", Str s.s_loc.Analysis.l_file);
                                               ("line", Int s.s_loc.Analysis.l_line);
                                               ("escape", Bool s.s_escape);
                                             ])
                                         c.r_writes) );
                                ]))
                          g.g_cells) );
                 ])
             reports) );
    ]
