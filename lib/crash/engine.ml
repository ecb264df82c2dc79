(* The scenario engine: glue the recorder, the enumerator and the oracle
   into sweeps, and handle the operator-facing workflows — divergence
   bundles, key replay, and greedy workload minimization. *)

module Op = Rae_vfs.Op
module Workload = Rae_workload.Workload
module Blackbox = Rae_obs.Blackbox
module Jsonx = Rae_obs.Jsonx

type config = {
  prefix_stride : int;
  max_subset_bits : int;
  samples_per_epoch : int;
  seed : int64;
  bundle_dir : string option;  (* write a postmortem bundle per divergence *)
  run_id : string;
}

let default_config =
  {
    prefix_stride = 1;
    max_subset_bits = 5;
    samples_per_epoch = 12;
    seed = 0xC4A5DL;
    bundle_dir = None;
    run_id = "crashstudy";
  }

type divergence = { d_label : string; d_key : string; d_reason : string }

type stats = {
  s_workloads : int;
  s_points : int;
  s_consistent : int;
  s_repaired : int;
  s_diverging : divergence list;
}

let empty_stats =
  { s_workloads = 0; s_points = 0; s_consistent = 0; s_repaired = 0; s_diverging = [] }

let merge a b =
  {
    s_workloads = a.s_workloads + b.s_workloads;
    s_points = a.s_points + b.s_points;
    s_consistent = a.s_consistent + b.s_consistent;
    s_repaired = a.s_repaired + b.s_repaired;
    s_diverging = a.s_diverging @ b.s_diverging;
  }

let pp_op = Op.pp
let render_ops ops = Format.asprintf "%a" (Fmt.list ~sep:(Fmt.any "; ") pp_op) ops

(* ---- divergence bundles (PR 7 postmortem format, kind "crash") ---- *)

let bundle_seq = Atomic.make 0 (* atomic: parallel sweeps emit bundles concurrently *)

let emit_bundle cfg ~label (t : Recording.t) (o : Oracle.outcome) =
  match cfg.bundle_dir with
  | None -> ()
  | Some dir ->
      let seq = Atomic.fetch_and_add bundle_seq 1 in
      let reason =
        match o.Oracle.o_verdict with Oracle.Diverging r -> r | _ -> "not-diverging"
      in
      let lo, hi = o.Oracle.o_candidates in
      let json =
        Jsonx.Obj
          [
            ("schema", Jsonx.Str Blackbox.schema_version);
            ("kind", Jsonx.Str Blackbox.kind_crash);
            ("seq", Jsonx.Int seq);
            ("ts_ns", Jsonx.Int 0);
            ("rev", Jsonx.Str (Blackbox.git_rev ()));
            ("run_id", Jsonx.Str cfg.run_id);
            ("health", Jsonx.Str "DEGRADED");
            ( "policy",
              Jsonx.Obj
                [
                  ("workload", Jsonx.Str label);
                  ("ops", Jsonx.List (Array.to_list t.Recording.ops |> List.map (fun op -> Jsonx.Str (Format.asprintf "%a" pp_op op))));
                  ("barriers", Jsonx.Bool t.Recording.barriers);
                  ("nblocks", Jsonx.Int t.Recording.nblocks);
                  ("ninodes", Jsonx.Int t.Recording.ninodes);
                  ("commit_interval", Jsonx.Int t.Recording.commit_interval);
                ] );
            ("checkpoint", Jsonx.Null);
            ("journal", Jsonx.Null);
            ("metrics", Jsonx.Obj [ ("events", Jsonx.Int (Array.length t.Recording.events)) ]);
            ( "events",
              Jsonx.List
                [
                  Jsonx.Obj
                    [
                      ("seq", Jsonx.Int 0);
                      ("ts_ns", Jsonx.Int 0);
                      ("kind", Jsonx.Str "crash-divergence");
                      ("key", Jsonx.Str o.Oracle.o_key);
                    ];
                ] );
            ( "recovery",
              Jsonx.Obj
                [
                  ("trigger", Jsonx.Str ("crash-divergence:" ^ o.Oracle.o_key));
                  ("outcome", Jsonx.Str reason);
                  ("window", Jsonx.Int (hi - lo + 1));
                  ("replayed", Jsonx.Int 0);
                  ("skipped", Jsonx.Int 0);
                  ("seeded", Jsonx.Bool t.Recording.seeded_recovery);
                  ("phases", Jsonx.List []);
                ] );
            ("impacted_sessions", Jsonx.List []);
          ]
      in
      (* Best-effort, like the controller's bundle writer: a sweep must
         not fail because the bundle directory is unwritable. *)
      (match Blackbox.write ~dir ~seq ~kind:Blackbox.kind_crash json with
      | Ok _ | Error _ -> ())

(* ---- sweeps ---- *)

let sweep_recording ?(cfg = default_config) ?(from_event = 0) ~label (t : Recording.t) =
  let points =
    Enumerate.plan ~prefix_stride:cfg.prefix_stride ~max_subset_bits:cfg.max_subset_bits
      ~samples_per_epoch:cfg.samples_per_epoch ~seed:cfg.seed ~from_event t
  in
  List.fold_left
    (fun acc p ->
      let o = Oracle.judge t p in
      match o.Oracle.o_verdict with
      | Oracle.Consistent -> { acc with s_points = acc.s_points + 1; s_consistent = acc.s_consistent + 1 }
      | Oracle.Repaired -> { acc with s_points = acc.s_points + 1; s_repaired = acc.s_repaired + 1 }
      | Oracle.Diverging reason ->
          emit_bundle cfg ~label t o;
          {
            acc with
            s_points = acc.s_points + 1;
            s_diverging =
              { d_label = label; d_key = o.Oracle.o_key; d_reason = reason } :: acc.s_diverging;
          })
    { empty_stats with s_workloads = 1 }
    points

let sweep_ops ?cfg ?(barriers = true) ~label ops =
  sweep_recording ?cfg ~label (Recording.record ~barriers ops)

(* Workloads are pairwise independent — each sweep records onto its own
   fresh image and judges each crash point against a fresh mount — so
   the sweep fans out at workload granularity, one item per workload.
   The per-workload stats merge in workload order whatever the domain
   count, so the result (divergence list included) is identical to the
   one-domain sweep's. *)
let sweep_workloads ?cfg ?(domains = 1) workloads =
  Rae_par.Pool.map_array ~domains
    (fun (label, ops) -> sweep_ops ?cfg ~label ops)
    (Array.of_list workloads)
  |> Array.fold_left merge empty_stats

let sweep_bounded ?cfg ?domains ~max_workloads () =
  sweep_workloads ?cfg ?domains (Bounded.sample ~max:max_workloads)

let sweep_full ?cfg ?domains () =
  sweep_workloads ?cfg ?domains
    (List.map (fun ops -> (Bounded.label ops, ops)) (Bounded.all ()))

let sweep_targeted ?cfg ?(count = 40) ?(seeds = [ 1L; 2L ]) ?(profiles = [ Workload.Varmail; Workload.Metadata ]) () =
  List.fold_left
    (fun acc profile ->
      List.fold_left
        (fun acc seed ->
          let rng = Rae_util.Rng.create seed in
          let ops = Workload.ops profile rng ~count in
          let label =
            Printf.sprintf "%s:%Ld:%d" (Workload.profile_name profile) seed count
          in
          merge acc
            (sweep_recording ?cfg ~label
               (Recording.record ~nblocks:2048 ~ninodes:256 ~commit_interval:8 ops)))
        acc seeds)
    empty_stats profiles

(* After [ops]: a sync, then a new file with twelve blocks of data,
   which the base's soft limit does not count.  A shadow that replays
   them hands over twelve new blocks plus the superblock, both bitmaps,
   an inode-table block and the root directory: more than a 16-block
   journal's soft limit of 8, so the download commits a chunk of new
   blocks before the rest. *)
let chunking_burst ops =
  let spec = Rae_specfs.Spec.make () in
  List.iter (fun op -> ignore (Rae_specfs.Spec.exec spec op)) ops;
  let path = Rae_vfs.Path.parse_exn "/burst" in
  let opening = Op.Open (path, Rae_vfs.Types.flags_create) in
  match Rae_specfs.Spec.exec spec opening with
  | Ok (Op.Fd fd) -> [ Op.Sync; opening; Op.Pwrite (fd, 0, String.make (12 * 4096) 'b') ]
  | _ -> invalid_arg "Rae_crash.Engine.chunking_burst: the burst file did not open"

(* Crash during recovery / during the checkpoint-fold-seeded recovery:
   record through the controller with the armed panic, then enumerate
   only the recovery pipeline's own write suffix, through the commit that
   persists its hand-off.  With [journal_len] the workload ends in
   {!chunking_burst}, so the hand-off commits in chunks inside the
   download. *)
let sweep_recovery ?cfg ?(count = 24) ?(seed = 7L) ?journal_len ~ckpt () =
  let rng = Rae_util.Rng.create seed in
  let ops = Workload.ops Workload.Varmail rng ~count in
  let ops = match journal_len with Some _ -> ops @ chunking_burst ops | None -> ops in
  let t = Recording.record_recovery ?journal_len ~ckpt ops in
  let fail msg = invalid_arg ("Rae_crash.Engine.sweep_recovery: " ^ msg) in
  if ckpt && not t.Recording.seeded_recovery then
    fail "checkpointed run did not seed from the checkpoint";
  (match (journal_len, t.Recording.handoff_deferred) with
  | None, false -> fail "the hand-off committed inside the recovery"
  | Some _, true -> fail "the hand-off did not chunk"
  | None, true | Some _, false -> ());
  let from_event =
    match t.Recording.recovery_from with
    | Some e -> e
    | None -> fail "recording has no recovery suffix"
  in
  let label =
    Printf.sprintf "recovery:%s%s:%Ld:%d" (if ckpt then "ckpt" else "cold")
      (match journal_len with Some n -> Printf.sprintf ":journal%d" n | None -> "")
      seed count
  in
  sweep_recording ?cfg ~from_event ~label t

(* ---- operator workflows ---- *)

let first_divergence ?cfg ?(barriers = true) ops =
  let stats = sweep_ops ?cfg ~barriers ~label:(render_ops ops) ops in
  match List.rev stats.s_diverging with d :: _ -> Some d | [] -> None

(* Greedy delta-debugging: drop one op at a time while the workload still
   diverges somewhere.  Bounded workloads are tiny, so the quadratic scan
   is fine. *)
let minimize ?cfg ?(barriers = true) ops =
  let diverges ops = ops <> [] && first_divergence ?cfg ~barriers ops <> None in
  let rec shrink ops =
    let n = List.length ops in
    let rec try_drop i =
      if i >= n then ops
      else
        let cand = List.filteri (fun j _ -> j <> i) ops in
        if diverges cand then shrink cand else try_drop (i + 1)
    in
    try_drop 0
  in
  if diverges ops then Some (shrink ops) else None

let repro ?(barriers = true) ~key ops =
  let t = Recording.record ~barriers ops in
  match Enumerate.bounds_of_key t key with
  | None -> Error (Printf.sprintf "key %S does not parse against this recording" key)
  | Some (guaranteed, applied_hi) ->
      Ok (Oracle.judge t { Enumerate.p_key = key; p_guaranteed = guaranteed; p_applied_hi = applied_hi })

let pp_stats ppf s =
  Format.fprintf ppf "workloads=%d points=%d consistent=%d repaired=%d diverging=%d"
    s.s_workloads s.s_points s.s_consistent s.s_repaired (List.length s.s_diverging)
