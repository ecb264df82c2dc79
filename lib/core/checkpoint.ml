open Rae_vfs
module Shadow = Rae_shadowfs.Shadow

(* The warm shadow below is an ordinary [Shadow.t]: it holds a read-only
   device handle and funnels every update into its COW overlay, so the
   shadow-purity lint rule covers this module end to end — nothing here
   may reach a write-path sink.  The controller feeds us oplog suffixes
   and fd snapshots; we never see the base or the journal directly. *)

type stats = {
  cuts : int;  (** re-bases onto a freshly committed S0 *)
  folds : int;  (** background fold batches applied to the warm shadow *)
  folded_ops : int;  (** operations folded across all batches *)
  fold_divergences : int;  (** constrained-mode mismatches seen while folding *)
  seeded : int;  (** recoveries seeded from the checkpoint *)
  fallbacks : int;  (** seeded recoveries that fell back to the cold path *)
  poisons : int;  (** checkpoints discarded after a fold/seed failure *)
}

(* A fold request carries the oplog suffix snapshot plus the warm-shadow
   generation it was scheduled against.  The generation guard is what
   makes the off-domain fold safe against the hot path's own lifecycle:
   a cut (or poison) bumps [warm_gen], so a request enqueued against a
   previous warm instance is discarded instead of being folded into a
   fresh shadow whose caches (fast-path resolution cache included) it
   was never scheduled for — oplog sequence numbers alone cannot carry
   that burden because a contained reboot resets them. *)
type fold_req = { fr_entries : Rae_vfs.Op.recorded list; fr_next : int; fr_gen : int }

type async_st = {
  amu : Mutex.t;
  a_not_full : Condition.t;  (* queue fell below capacity *)
  a_not_empty : Condition.t;  (* work available (or stopping) *)
  a_idle : Condition.t;  (* queue empty and worker not folding *)
  aq : fold_req Queue.t;  (* guarded by [amu] *)
  a_cap : int;  (* bounded queue: enqueue blocks at this watermark *)
  mutable a_busy : bool;  (* worker currently executing a fold *)
  mutable a_stop : bool;
  mutable a_hwm : int;  (* high-water mark of queue depth *)
  mutable a_enqueued : int;
  mutable a_blocked : int;  (* enqueues that hit backpressure *)
  mutable a_dropped : int;  (* stale-generation requests discarded *)
  mutable a_domain : unit Domain.t option;
}

(* The checkpoint's one state cell.  A cut only names its S0 (by the
   descriptor table open there); the warm shadow is attached on first use,
   by a fold or a seed.  One field, so a reader on either domain sees a
   whole state, never half of a transition. *)
type warm =
  | Absent  (* never cut, or poisoned *)
  | Pending of (Types.fd * Types.ino * Types.open_flags) list  (* cut, not yet attached *)
  | Warm of Shadow.t

type t = {
  device : Rae_block.Device.t;
  config : Shadow.config;
  tracer : Rae_obs.Tracer.t option;
  events : Rae_obs.Events.t option;
  fold_interval : int;
  mutable warm : warm;
  mutable cursor : int;  (* first oplog seq the warm shadow has NOT folded *)
  mutable base_seq : int64;  (* journal commit seq of the S0 we are based on *)
  mutable warm_gen : int;  (* bumped on every cut/poison; guards stale folds *)
  mutable sched_cursor : int;  (* async: cursor the *enqueued* folds reach *)
  mutable async : async_st option;  (* Some = background fold domain *)
  mutable s_cuts : int;
  mutable s_folds : int;
  mutable s_folded_ops : int;
  mutable s_fold_divergences : int;
  mutable s_seeded : int;
  mutable s_fallbacks : int;
  mutable s_poisons : int;
}

(* Domain discipline for the mutable fields above: [warm]/[cursor]/the
   [s_*] counters are written by the background worker only while
   [a_busy] is set, and by the owner only after quiescing the worker
   ([cut], [seed], [poison], [shutdown] all drain or discard first), so
   the two domains never write concurrently.  The one owner write that
   does not quiesce, [materialize]'s [Pending] -> [Warm], cannot race
   either: a [Pending] state means no fold was enqueued since the cut
   that quiesced the worker.  The owner's unsynchronized
   hot-path reads ([due], [valid], [stats]) may observe a stale value,
   which only ever delays a fold or staleness a metric sample — never
   corrupts the shadow, because every fold re-filters entries against
   the true [cursor] and the generation guard under [amu]. *)

let create ?tracer ?events ?(fast_paths = true) ~shadow_checks ~fold_interval device =
  {
    device;
    (* Never fsck on the warm path: the cut re-reads only the superblock
       and bitmaps (strict), and every folded op runs under the shadow's
       full runtime checks — continuous validation in place of the cold
       path's up-front scan. *)
    config =
      {
        Shadow.default_config with
        Shadow.checks = shadow_checks;
        fsck_on_attach = false;
        fast_paths;
      };
    tracer;
    events;
    fold_interval = max 1 fold_interval;
    warm = Absent;
    cursor = 0;
    base_seq = 0L;
    warm_gen = 0;
    sched_cursor = 0;
    async = None;
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

let with_span t name f =
  match t.tracer with Some tr -> Rae_obs.Tracer.with_span tr ~cat:"ckpt" name f | None -> f ()

(* Poison without quiescing: called by the worker itself (it *is* the
   in-flight fold) and by owner paths that have already quiesced. *)
let poison_unsafe t =
  if valid t then begin
    t.warm <- Absent;
    t.warm_gen <- t.warm_gen + 1;
    t.s_poisons <- t.s_poisons + 1;
    match t.events with Some ev -> Rae_obs.Events.record_ckpt_poison ev | None -> ()
  end

(* ---- background-fold quiescence ---- *)

(* Discard everything queued and wait out the in-flight fold.  Used by
   [cut] and [poison]: queued windows are either subsumed by the fresh
   S0 (cut) or pointless (poison), so there is no reason to execute
   them — only the currently-executing fold must finish before the
   owner may touch [warm]/[cursor]. *)
let quiesce_discard t =
  match t.async with
  | None -> ()
  | Some a ->
      Mutex.lock a.amu;
      Queue.clear a.aq;
      Condition.broadcast a.a_not_full;
      while a.a_busy do
        Condition.wait a.a_idle a.amu
      done;
      Mutex.unlock a.amu

(* Drain: wait until every queued fold has been executed.  Recovery's
   seed phase awaits this so the warm shadow reaches the furthest
   enqueued cursor before its state is exported. *)
let checkpoint_barrier t =
  match t.async with
  | None -> ()
  | Some a ->
      Mutex.lock a.amu;
      while a.a_busy || not (Queue.is_empty a.aq) do
        Condition.wait a.a_idle a.amu
      done;
      Mutex.unlock a.amu

let poison t =
  quiesce_discard t;
  poison_unsafe t

(* ---- cut: re-base the checkpoint on a freshly committed S0 ---- *)

(* The cut records only what the warm shadow will be built from; the
   attach (the strict superblock and bitmap decode, then S0's
   descriptors) waits for the first fold or seed, and most cuts never
   pay it: the next commit re-cuts first.  This is sound because the
   device changes only at a commit and every commit re-cuts, so a
   deferred attach reads exactly the S0 its cut named. *)
let cut t ~window ~fds ~next_seq ~commit_seq =
  quiesce_discard t;
  if window > 0 then
    Error
      (Printf.sprintf "refusing checkpoint cut: op window holds %d uncommitted operation(s)"
         window)
  else
    with_span t "ckpt-cut" (fun () ->
        t.warm <- Pending fds;
        t.cursor <- next_seq;
        t.sched_cursor <- next_seq;
        t.warm_gen <- t.warm_gen + 1;
        t.base_seq <- commit_seq;
        t.s_cuts <- t.s_cuts + 1;
        (match t.events with Some ev -> Rae_obs.Events.record_ckpt_cut ev | None -> ());
        Ok ())

(* A shadow on the cut's S0 with S0's descriptors reinstated. *)
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

(* The warm shadow, attached first if the last cut deferred that; [None]
   without a checkpoint.  Owner domain only: [fold] materializes before it
   enqueues, so the background worker always finds [Warm]. *)
let materialize t =
  match t.warm with
  | Absent -> None
  | Warm warm -> Some warm
  | Pending fds -> (
      match attach_s0 t fds with
      | Ok warm ->
          t.warm <- Warm warm;
          Some warm
      | Error _ ->
          poison_unsafe t;
          None)

(* ---- fold: advance the warm shadow through the recorded suffix ---- *)

let due t ~next_seq =
  match t.warm with
  | Absent -> false
  | Pending _ | Warm _ ->
      (* In async mode schedule against the furthest *enqueued* cursor,
         not the folded one — otherwise every hot-path op past the
         interval would enqueue another copy of the same window while
         the worker chews on the first. *)
      let c = match t.async with Some _ -> t.sched_cursor | None -> t.cursor in
      next_seq - c >= t.fold_interval

let fold_into t warm ~entries ~next_seq =
  try
    (* The whole window goes to the shadow in one batched pass: the
       shadow amortizes superblock/bitmap write-back and the summary
       re-check across the window instead of paying them per op.
       Divergences keep the shadow's own answer, same policy as cold
       constrained replay; the count surfaces through stats/metrics. *)
    let window = List.filter (fun r -> r.Op.seq >= t.cursor) entries in
    let res = Shadow.exec_constrained_window warm window in
    t.cursor <- next_seq;
    t.s_folds <- t.s_folds + 1;
    t.s_folded_ops <- t.s_folded_ops + res.Shadow.w_ops;
    t.s_fold_divergences <- t.s_fold_divergences + res.Shadow.w_divergences;
    match t.events with
    | Some ev -> Rae_obs.Events.record_ckpt_fold ev ~ops:res.Shadow.w_ops
    | None -> ()
  with Shadow.Violation _ ->
    (* The warm replica refuses the fold — don't disturb the hot path;
       recovery will take the cold route until the next cut. *)
    poison_unsafe t

(* The synchronous fold, on the owner domain; a deferred attach is part
   of the first fold's span. *)
let fold_now t ~entries ~next_seq =
  if valid t then
    with_span t "ckpt-fold" (fun () ->
        match materialize t with
        | Some warm -> fold_into t warm ~entries ~next_seq
        | None -> ())

let fold t ~entries ~next_seq =
  match t.async with
  | None -> fold_now t ~entries ~next_seq
  | Some a ->
      (* Attach on this (owner) domain before the first enqueue after a
         cut: the worker only ever folds into a [Warm] shadow. *)
      if Option.is_some (materialize t) then begin
        Mutex.lock a.amu;
        if a.a_stop then begin
          (* Worker gone (shutdown): degrade to the synchronous fold. *)
          Mutex.unlock a.amu;
          fold_now t ~entries ~next_seq
        end
        else begin
          if Queue.length a.aq >= a.a_cap then begin
            (* Backpressure: the hot path stalls rather than letting the
               fold backlog (and the memory pinned by its snapshots)
               grow without bound. *)
            a.a_blocked <- a.a_blocked + 1;
            while Queue.length a.aq >= a.a_cap && not a.a_stop do
              Condition.wait a.a_not_full a.amu
            done
          end;
          if a.a_stop then begin
            (* The worker died while we were waiting: don't enqueue into
               a queue nobody drains. *)
            Mutex.unlock a.amu;
            fold_now t ~entries ~next_seq
          end
          else begin
            Queue.push { fr_entries = entries; fr_next = next_seq; fr_gen = t.warm_gen } a.aq;
            a.a_enqueued <- a.a_enqueued + 1;
            if Queue.length a.aq > a.a_hwm then a.a_hwm <- Queue.length a.aq;
            if next_seq > t.sched_cursor then t.sched_cursor <- next_seq;
            Condition.broadcast a.a_not_empty;
            Mutex.unlock a.amu
          end
        end
      end

let worker_loop t a =
  let rec loop () =
    Mutex.lock a.amu;
    let rec await () =
      if a.a_stop then None
      else if Queue.is_empty a.aq then begin
        Condition.wait a.a_not_empty a.amu;
        await ()
      end
      else Some (Queue.pop a.aq)
    in
    match await () with
    | None -> Mutex.unlock a.amu
    | Some req ->
        a.a_busy <- true;
        Condition.broadcast a.a_not_full;
        Mutex.unlock a.amu;
        (* The generation guard: a request scheduled against a warm
           shadow that has since been replaced (cut) or dropped (poison)
           must not touch the new one — its window is meaningless there,
           and the new shadow's fast-path caches were never invalidated
           for it. *)
        if req.fr_gen = t.warm_gen then begin
          try
            with_span t "par-fold" (fun () ->
                match t.warm with
                | Warm warm ->
                    with_span t "ckpt-fold" (fun () ->
                        fold_into t warm ~entries:req.fr_entries ~next_seq:req.fr_next)
                | Absent | Pending _ -> ())
          with
          | Shadow.Violation _ ->
              (* Belt and braces: [fold_into] converts violations to a
                 poison itself, but if one still escapes the policy is
                 identical — forfeit the checkpoint, keep serving. *)
              poison_unsafe t
          | e ->
              (* A non-signal exception is a genuine bug.  Forfeit the
                 checkpoint, flip the engine off so [fold] degrades to
                 the synchronous path (enqueuers must never block on a
                 dead worker), restore the worker invariants, and let
                 the exception surface at [shutdown]'s join. *)
              poison_unsafe t;
              Mutex.lock a.amu;
              a.a_stop <- true;
              a.a_busy <- false;
              Queue.clear a.aq;
              Condition.broadcast a.a_not_full;
              Condition.broadcast a.a_idle;
              Mutex.unlock a.amu;
              raise e
        end
        else a.a_dropped <- a.a_dropped + 1;
        Mutex.lock a.amu;
        a.a_busy <- false;
        if Queue.is_empty a.aq then Condition.broadcast a.a_idle;
        Mutex.unlock a.amu;
        loop ()
  in
  loop ()

let start_async_fold t ~queue_cap =
  match t.async with
  | Some _ -> ()
  | None ->
      let a =
        {
          amu = Mutex.create ();
          a_not_full = Condition.create ();
          a_not_empty = Condition.create ();
          a_idle = Condition.create ();
          aq = Queue.create ();
          a_cap = max 1 queue_cap;
          a_busy = false;
          a_stop = false;
          a_hwm = 0;
          a_enqueued = 0;
          a_blocked = 0;
          a_dropped = 0;
          a_domain = None;
        }
      in
      t.async <- Some a;
      a.a_domain <- Some (Domain.spawn (fun () -> worker_loop t a))

let async_fold t = t.async <> None

let shutdown t =
  match t.async with
  | None -> ()
  | Some a ->
      Mutex.lock a.amu;
      (* Finish queued work first, so shutdown doubles as a barrier. *)
      while a.a_busy || not (Queue.is_empty a.aq) do
        Condition.wait a.a_idle a.amu
      done;
      a.a_stop <- true;
      Condition.broadcast a.a_not_empty;
      Mutex.unlock a.amu;
      (match a.a_domain with Some d -> Domain.join d | None -> ());
      a.a_domain <- None

(* ---- seed: hand recovery a shadow pre-advanced to the cursor ---- *)

let seed t =
  (* Await the in-flight and queued background folds: the exported state
     must include every window the hot path recorded before the panic,
     or recovery's Δ replay would re-execute ops the warm shadow is
     about to fold concurrently. *)
  checkpoint_barrier t;
  let fresh =
    match t.warm with
    | Absent -> None
    (* A cut nothing has folded into: what exporting its freshly attached
       shadow would give, built directly. *)
    | Pending fds -> Some (attach_s0 t fds)
    | Warm warm -> Some (Shadow.attach_from ~config:t.config (Shadow.export_state warm) t.device)
  in
  match fresh with
  | None -> Error "no warm checkpoint"
  | Some (Ok shadow) ->
      t.s_seeded <- t.s_seeded + 1;
      Ok (shadow, t.cursor)
  | Some (Error msg) ->
      poison t;
      Error ("checkpoint seed: " ^ msg)

let note_fallback t = t.s_fallbacks <- t.s_fallbacks + 1

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

type fold_queue_stats = {
  fq_depth : int;
  fq_hwm : int;
  fq_enqueued : int;
  fq_blocked : int;
  fq_dropped : int;
}

let fold_queue t =
  match t.async with
  | None -> None
  | Some a ->
      Mutex.lock a.amu;
      let s =
        {
          fq_depth = Queue.length a.aq;
          fq_hwm = a.a_hwm;
          fq_enqueued = a.a_enqueued;
          fq_blocked = a.a_blocked;
          fq_dropped = a.a_dropped;
        }
      in
      Mutex.unlock a.amu;
      Some s

let reset_stats t =
  t.s_cuts <- 0;
  t.s_folds <- 0;
  t.s_folded_ops <- 0;
  t.s_fold_divergences <- 0;
  t.s_seeded <- 0;
  t.s_fallbacks <- 0;
  t.s_poisons <- 0;
  match t.async with
  | None -> ()
  | Some a ->
      Mutex.lock a.amu;
      a.a_hwm <- 0;
      a.a_enqueued <- 0;
      a.a_blocked <- 0;
      a.a_dropped <- 0;
      Mutex.unlock a.amu

let register_obs reg t =
  let module M = Rae_obs.Metrics in
  M.register_counter reg ~help:"warm checkpoint cuts (re-bases on a committed S0)"
    ~reset:(fun () -> t.s_cuts <- 0)
    "rae_ckpt_cuts_total"
    (fun () -> t.s_cuts);
  M.register_counter reg ~help:"background fold batches applied to the warm shadow"
    ~reset:(fun () -> t.s_folds <- 0)
    "rae_ckpt_folds_total"
    (fun () -> t.s_folds);
  M.register_counter reg ~help:"operations folded into the warm shadow"
    ~reset:(fun () -> t.s_folded_ops <- 0)
    "rae_ckpt_folded_ops_total"
    (fun () -> t.s_folded_ops);
  M.register_counter reg ~help:"constrained-mode divergences observed while folding"
    ~reset:(fun () -> t.s_fold_divergences <- 0)
    "rae_ckpt_fold_divergences_total"
    (fun () -> t.s_fold_divergences);
  M.register_counter reg ~help:"recoveries seeded from the warm checkpoint"
    ~reset:(fun () -> t.s_seeded <- 0)
    "rae_ckpt_seeded_total"
    (fun () -> t.s_seeded);
  M.register_counter reg ~help:"seeded recoveries that fell back to the cold path"
    ~reset:(fun () -> t.s_fallbacks <- 0)
    "rae_ckpt_fallbacks_total"
    (fun () -> t.s_fallbacks);
  M.register_counter reg ~help:"checkpoints discarded after a fold or seed failure"
    ~reset:(fun () -> t.s_poisons <- 0)
    "rae_ckpt_poisons_total"
    (fun () -> t.s_poisons);
  M.register_gauge reg ~help:"1 while a warm checkpoint is available" "rae_ckpt_valid" (fun () ->
      if valid t then 1. else 0.);
  match t.async with
  | None -> ()
  | Some a ->
      M.register_gauge reg ~help:"background-fold queue depth" "rae_par_fold_queue_depth"
        (fun () -> float_of_int (Queue.length a.aq));
      M.register_gauge reg ~help:"background-fold queue depth high-water mark"
        "rae_par_fold_backlog_hwm" (fun () -> float_of_int a.a_hwm);
      M.register_counter reg ~help:"fold windows enqueued to the background domain"
        ~reset:(fun () -> a.a_enqueued <- 0)
        "rae_par_fold_enqueued_total"
        (fun () -> a.a_enqueued);
      M.register_counter reg ~help:"hot-path enqueues stalled by fold-queue backpressure"
        ~reset:(fun () -> a.a_blocked <- 0)
        "rae_par_fold_backpressure_total"
        (fun () -> a.a_blocked);
      M.register_counter reg ~help:"stale-generation fold windows discarded unexecuted"
        ~reset:(fun () -> a.a_dropped <- 0)
        "rae_par_fold_dropped_total"
        (fun () -> a.a_dropped)
