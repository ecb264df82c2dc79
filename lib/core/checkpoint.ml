open Rae_vfs
module Shadow = Rae_shadowfs.Shadow

(* The warm shadow below is an ordinary [Shadow.t]: it holds a read-only
   device handle and funnels every update into its COW overlay, so the
   shadow-purity lint rule covers this module end to end — nothing here
   may reach a write-path sink.  The controller hands us its oplog and
   fd snapshots; we never see the base or the journal directly. *)

type stats = {
  cuts : int;  (** re-bases onto a freshly committed S0 *)
  folds : int;  (** fold batches applied to the warm shadow *)
  folded_ops : int;  (** operations the folds executed (pure reads are not folded) *)
  fold_divergences : int;  (** constrained-mode mismatches seen while folding (each poisons) *)
  seeded : int;  (** recoveries seeded from the checkpoint *)
  fallbacks : int;  (** seeded recoveries that fell back to the cold path *)
  poisons : int;  (** checkpoints discarded after a fold or seed-attach failure *)
}

(* The checkpoint's one state cell.  A cut only names its S0 (by the
   descriptor table open there); the warm shadow is attached on first use,
   by a fold or a seed. *)
type warm =
  | Absent  (* never cut, poisoned, or handed to a recovery *)
  | Pending of (Types.fd * Types.ino * Types.open_flags) list  (* cut, not yet attached *)
  | Warm of Shadow.t

type t = {
  device : Rae_block.Device.t;
  config : Shadow.config;
  events : Rae_obs.Events.t;  (* the controller's flight recorder *)
  fold_interval : int;
  mutable warm : warm;
  mutable cursor : int;  (* first oplog seq the warm shadow has NOT folded *)
  mutable base_seq : int64;  (* journal commit seq of the S0 we are based on *)
  mutable s_cuts : int;
  mutable s_folds : int;
  mutable s_folded_ops : int;
  mutable s_fold_divergences : int;
  mutable s_seeded : int;
  mutable s_fallbacks : int;
  mutable s_poisons : int;
}

let create ~events ?(fast_paths = true) ~fold_interval device =
  {
    device;
    (* No fsck on the warm path: the attach decodes only the superblock
       and bitmaps (strict), and every folded op runs under the shadow's
       full runtime checks — continuous validation in place of the cold
       path's up-front scan. *)
    config = { Shadow.default_config with Shadow.fast_paths };
    events;
    fold_interval = max 1 fold_interval;
    warm = Absent;
    cursor = 0;
    base_seq = 0L;
    s_cuts = 0;
    s_folds = 0;
    s_folded_ops = 0;
    s_fold_divergences = 0;
    s_seeded = 0;
    s_fallbacks = 0;
    s_poisons = 0;
  }

let valid t = match t.warm with Absent -> false | Pending _ | Warm _ -> true
let cursor t = t.cursor
let base_seq t = t.base_seq

let poison t =
  if valid t then begin
    t.warm <- Absent;
    t.s_poisons <- t.s_poisons + 1;
    Rae_obs.Events.record_ckpt_poison t.events
  end

(* ---- cut: re-base the checkpoint on a freshly committed S0 ---- *)

(* The cut records only what the warm shadow will be built from; the
   attach (the strict superblock and bitmap decode, then S0's
   descriptors) waits for the first fold or seed, and most cuts never
   pay it: the next commit re-cuts first.  This is sound because the
   device changes only at a commit and every commit re-cuts, so a
   deferred attach reads exactly the S0 its cut named. *)
let cut t ~window ~fds ~next_seq ~commit_seq =
  if window > 0 then
    Error
      (Printf.sprintf "refusing checkpoint cut: op window holds %d uncommitted operation(s)"
         window)
  else
    Rae_obs.Events.with_span t.events "ckpt-cut" (fun () ->
        t.warm <- Pending fds;
        t.cursor <- next_seq;
        t.base_seq <- commit_seq;
        t.s_cuts <- t.s_cuts + 1;
        Ok ())

(* A shadow on the cut's S0 with S0's descriptors reinstated.  The
   shadow's operations map device errors to EIO, but its attach and
   descriptor reinstatement raise them, and a corrupt inode raises
   [Shadow.Violation]: {!fold} and {!seed} poison the checkpoint on
   either. *)
let attach_s0 t fds =
  match Shadow.attach ~config:t.config t.device with
  | Error msg -> Error ("warm attach: " ^ msg)
  | Ok warm ->
      let rec install = function
        | [] -> Ok warm
        | (fd, ino, flags) :: rest -> (
            match Shadow.install_fd warm ~fd ~ino flags with
            | Ok () -> install rest
            | Error msg -> Error ("warm fd reinstatement: " ^ msg))
      in
      install fds

(* The warm shadow, attached first if the last cut deferred that.  A
   rejected attach poisons the checkpoint. *)
let materialize t =
  match t.warm with
  | Absent -> Error "no warm checkpoint"
  | Warm warm -> Ok warm
  | Pending fds -> (
      match attach_s0 t fds with
      | Ok warm ->
          t.warm <- Warm warm;
          Ok warm
      | Error msg ->
          poison t;
          Error msg)

(* ---- fold: advance the warm shadow through the recorded suffix ---- *)

let due t ~next_seq = valid t && next_seq - t.cursor >= t.fold_interval

(* Fold only what recovery rebuilds.  A pure read ({!Op.is_pure_read})
   ticks no clock and touches none of the shadow's descriptors, orphans,
   bitmaps, superblock or overlay; it only fills caches, which stay
   coherent whichever reads filled them.  The cursor still passes the
   reads, so the seed and Δ are what folding them would give, and Δ
   replay still cross-checks every read recorded after the last fold.

   The whole window goes to the shadow in one batched pass, which
   amortizes superblock/bitmap write-back and the summary re-check.  Any
   divergence, and any violation or device error, poisons the
   checkpoint: the warm shadow no longer mirrors what the base
   acknowledged, and only the cold path from S0 can still report it. *)
let fold_into t warm oplog =
  let window = Oplog.select_from oplog ~seq:t.cursor (fun op -> not (Op.is_pure_read op)) in
  let res = Shadow.exec_constrained_window warm window in
  t.cursor <- Oplog.next_seq oplog;
  t.s_folds <- t.s_folds + 1;
  t.s_folded_ops <- t.s_folded_ops + res.Shadow.w_ops;
  t.s_fold_divergences <- t.s_fold_divergences + res.Shadow.w_divergences;
  Rae_obs.Events.record_ckpt_fold t.events ~ops:res.Shadow.w_ops;
  if res.Shadow.w_divergences > 0 then poison t

(* A deferred attach is part of the first fold's span. *)
let fold t oplog =
  if valid t then
    Rae_obs.Events.with_span t.events "ckpt-fold" (fun () ->
        try match materialize t with Ok warm -> fold_into t warm oplog | Error _ -> ()
        with Shadow.Violation _ | Rae_block.Device.Io_error _ -> poison t)

(* ---- seed: hand the warm shadow itself to recovery ---- *)

(* Recovery takes the warm shadow itself — caches, hints and allocation
   rotor included — so the checkpoint is spent until the next cut.  The
   contained reboot in between rewrites only committed blocks with their
   own contents, so what the shadow read before it is still S0. *)
let seed t =
  match materialize t with
  | Ok warm ->
      t.warm <- Absent;
      t.s_seeded <- t.s_seeded + 1;
      Ok (warm, t.cursor)
  | Error msg -> Error ("checkpoint seed: " ^ msg)
  | exception e ->
      poison t;
      raise e

let note_fallback t ~reason =
  t.s_fallbacks <- t.s_fallbacks + 1;
  Rae_obs.Events.record_ckpt_fallback t.events ~reason

(* ---- introspection ---- *)

let stats t =
  {
    cuts = t.s_cuts;
    folds = t.s_folds;
    folded_ops = t.s_folded_ops;
    fold_divergences = t.s_fold_divergences;
    seeded = t.s_seeded;
    fallbacks = t.s_fallbacks;
    poisons = t.s_poisons;
  }

let register_obs reg t =
  let module M = Rae_obs.Metrics in
  M.register_counter reg ~help:"warm checkpoint cuts (re-bases on a committed S0)"
    "rae_ckpt_cuts_total" (fun () -> t.s_cuts);
  M.register_counter reg ~help:"fold batches applied to the warm shadow"
    "rae_ckpt_folds_total" (fun () -> t.s_folds);
  M.register_counter reg ~help:"operations folded into the warm shadow (pure reads are not)"
    "rae_ckpt_folded_ops_total" (fun () -> t.s_folded_ops);
  M.register_counter reg ~help:"constrained-mode divergences observed while folding"
    "rae_ckpt_fold_divergences_total" (fun () -> t.s_fold_divergences);
  M.register_counter reg ~help:"recoveries seeded from the warm checkpoint"
    "rae_ckpt_seeded_total" (fun () -> t.s_seeded);
  M.register_counter reg ~help:"seeded recoveries that fell back to the cold path"
    "rae_ckpt_fallbacks_total" (fun () -> t.s_fallbacks);
  M.register_counter reg ~help:"checkpoints discarded after a fold or attach failure"
    "rae_ckpt_poisons_total" (fun () -> t.s_poisons);
  M.register_gauge reg ~help:"1 while a warm checkpoint is available" "rae_ckpt_valid" (fun () ->
      if valid t then 1. else 0.)
