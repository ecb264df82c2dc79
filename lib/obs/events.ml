(* Always-on flight recorder: a fixed-memory ring of structured events.

   The recorder must be cheap enough to leave enabled on the hot path,
   so the ring is laid out struct-of-arrays over pre-allocated [int]
   and [string] slots: recording writes scalars and {e existing}
   strings (op kinds and errnos are constant literals) into the slot —
   it never allocates.  The typed {!event} view is materialized only on
   read, by {!tail} and the bundle writer. *)

type body =
  | Op_done of { kind : string; errno : string; lat_ns : int; corr : int; session : int }
      (** one executed operation; [errno = ""] means success *)
  | Slow_op of { kind : string; lat_ns : int; threshold_ns : int; corr : int; session : int }
      (** an op whose latency crossed the slow-op threshold *)
  | Recovery_begin of { trigger : string }
  | Recovery_end of { ok : bool; seeded : bool; replayed : int }
  | Span_begin of { name : string }
  | Span_end of { name : string; ns : int }  (** [ns]: the span's duration *)
  | Ckpt_fold of { ops : int }
  | Ckpt_poison
  | Ckpt_fallback of { reason : string }
  | Bug_fired of { id : string }
  | Session_event of { action : [ `Attach | `Evict | `Retry | `Detach ]; session : int }
  | Degradation of { reason : string }

type event = { seq : int; ts_ns : int; body : body }
type health = Healthy | Recovering | Degraded | Failstop

let health_to_string = function
  | Healthy -> "OK"
  | Recovering -> "RECOVERING"
  | Degraded -> "DEGRADED"
  | Failstop -> "FAILSTOP"

let health_code = function Healthy -> 0 | Recovering -> 1 | Degraded -> 2 | Failstop -> 3

(* Event tag codes for the packed representation. *)
let k_op = 0
let k_slow = 1
let k_rbegin = 2
let k_sbegin = 3
let k_rend = 4
let k_send = 5
let k_fold = 6
let k_poison = 7
let k_bug = 8
let k_attach = 9
let k_evict = 10
let k_retry = 11
let k_detach = 12
let k_degraded = 13
let k_fallback = 14

type t = {
  mask : int;  (* capacity - 1; capacity is a power of two *)
  e_kind : int array;
  e_ts : int array;
  e_a : int array;
  e_b : int array;
  e_c : int array;
  e_d : int array;
  e_s1 : string array;
  e_s2 : string array;
  mutable clock : unit -> int;  (* nanoseconds *)
  mutable tap : (body -> unit) option;
      (* fed spans and marks, typed, as they are recorded: only they
         allocate, and only when a tap is set *)
  total : int Atomic.t;  (* events ever recorded; head = total land mask *)
}

let default_clock () = Int64.to_int (Clock.now_ns ())

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(capacity = 1024) ?(clock = default_clock) () =
  let cap = pow2_at_least (max 2 capacity) 2 in
  {
    mask = cap - 1;
    e_kind = Array.make cap 0;
    e_ts = Array.make cap 0;
    e_a = Array.make cap 0;
    e_b = Array.make cap 0;
    e_c = Array.make cap 0;
    e_d = Array.make cap 0;
    e_s1 = Array.make cap "";
    e_s2 = Array.make cap "";
    clock;
    tap = None;
    total = Atomic.make 0;
  }

let set_clock t clock = t.clock <- clock
let set_tap t f = t.tap <- Some f
let capacity t = t.mask + 1
let total t = Atomic.get t.total
let retained t = min (total t) (t.mask + 1)
let dropped t = total t - retained t
let clear t = Atomic.set t.total 0

(* The single write path: every record_* fills one slot completely so no
   field carries a stale value from an overwritten event.  The slot
   index comes from an atomic fetch-and-add, so concurrent recorders
   claim disjoint slots (the per-slot stores need no further ordering —
   a reader racing the writer of a live slot sees a torn event at worst,
   which the bounded [tail] views tolerate by construction). *)
let[@inline] put t ts kind a b c d s1 s2 =
  let i = Atomic.fetch_and_add t.total 1 land t.mask in
  t.e_kind.(i) <- kind;
  t.e_ts.(i) <- ts;
  t.e_a.(i) <- a;
  t.e_b.(i) <- b;
  t.e_c.(i) <- c;
  t.e_d.(i) <- d;
  t.e_s1.(i) <- s1;
  t.e_s2.(i) <- s2

let record_op t ~kind ~errno ~lat_ns ~corr ~session =
  put t (t.clock ()) k_op lat_ns corr session 0 kind errno

let record_slow_op t ~kind ~lat_ns ~threshold_ns ~corr ~session =
  put t (t.clock ()) k_slow lat_ns corr session threshold_ns kind ""

let record_recovery_begin t ~trigger =
  put t (t.clock ()) k_rbegin 0 0 0 0 trigger "";
  match t.tap with Some f -> f (Recovery_begin { trigger }) | None -> ()

let record_recovery_end t ~ok ~seeded ~replayed =
  put t (t.clock ()) k_rend (if ok then 1 else 0) (if seeded then 1 else 0) replayed 0 "" ""

let span_begin t name =
  let ts = t.clock () in
  put t ts k_sbegin 0 0 0 0 name "";
  (match t.tap with Some f -> f (Span_begin { name }) | None -> ());
  ts

let span_end t name ~since =
  let ts = t.clock () in
  let ns = ts - since in
  put t ts k_send ns 0 0 0 name "";
  (match t.tap with Some f -> f (Span_end { name; ns }) | None -> ());
  ns

let with_span t name f =
  let since = span_begin t name in
  Fun.protect ~finally:(fun () -> ignore (span_end t name ~since : int)) f

let record_ckpt_fold t ~ops = put t (t.clock ()) k_fold ops 0 0 0 "" ""
let record_ckpt_poison t = put t (t.clock ()) k_poison 0 0 0 0 "" ""

let record_ckpt_fallback t ~reason =
  put t (t.clock ()) k_fallback 0 0 0 0 reason "";
  match t.tap with Some f -> f (Ckpt_fallback { reason }) | None -> ()

let record_bug_fired t ~id = put t (t.clock ()) k_bug 0 0 0 0 id ""

let record_session t action ~session =
  let kind =
    match action with `Attach -> k_attach | `Evict -> k_evict | `Retry -> k_retry | `Detach -> k_detach
  in
  put t (t.clock ()) kind 0 0 session 0 "" ""

let record_degraded t ~reason = put t (t.clock ()) k_degraded 0 0 0 0 reason ""

(* ---- read side: materialize typed views ---- *)

let body_at t i =
  let a = t.e_a.(i)
  and b = t.e_b.(i)
  and c = t.e_c.(i)
  and d = t.e_d.(i)
  and s1 = t.e_s1.(i)
  and s2 = t.e_s2.(i) in
  let kind = t.e_kind.(i) in
  if kind = k_op then Op_done { kind = s1; errno = s2; lat_ns = a; corr = b; session = c }
  else if kind = k_slow then
    Slow_op { kind = s1; lat_ns = a; threshold_ns = d; corr = b; session = c }
  else if kind = k_rbegin then Recovery_begin { trigger = s1 }
  else if kind = k_rend then Recovery_end { ok = a = 1; seeded = b = 1; replayed = c }
  else if kind = k_sbegin then Span_begin { name = s1 }
  else if kind = k_send then Span_end { name = s1; ns = a }
  else if kind = k_fold then Ckpt_fold { ops = a }
  else if kind = k_poison then Ckpt_poison
  else if kind = k_fallback then Ckpt_fallback { reason = s1 }
  else if kind = k_bug then Bug_fired { id = s1 }
  else if kind = k_attach then Session_event { action = `Attach; session = c }
  else if kind = k_evict then Session_event { action = `Evict; session = c }
  else if kind = k_retry then Session_event { action = `Retry; session = c }
  else if kind = k_detach then Session_event { action = `Detach; session = c }
  else Degradation { reason = s1 }

let tail ?n t =
  let total = total t in
  let retained = min total (t.mask + 1) in
  let want = match n with Some n -> min (max 0 n) retained | None -> retained in
  let first = total - want in
  List.init want (fun j ->
      let seq = first + j in
      let i = seq land t.mask in
      { seq; ts_ns = t.e_ts.(i); body = body_at t i })

let body_kind_string = function
  | Op_done _ -> "op"
  | Slow_op _ -> "slow-op"
  | Recovery_begin _ -> "recovery-begin"
  | Recovery_end _ -> "recovery-end"
  | Span_begin _ -> "span-begin"
  | Span_end _ -> "span-end"
  | Ckpt_fold _ -> "ckpt-fold"
  | Ckpt_poison -> "ckpt-poison"
  | Ckpt_fallback _ -> "ckpt-fallback"
  | Bug_fired _ -> "bug-fired"
  | Session_event { action = `Attach; _ } -> "session-attach"
  | Session_event { action = `Evict; _ } -> "session-evict"
  | Session_event { action = `Retry; _ } -> "session-retry"
  | Session_event { action = `Detach; _ } -> "session-detach"
  | Degradation _ -> "degraded"

let event_json ev =
  let base = [ ("seq", Jsonx.Int ev.seq); ("ts_ns", Jsonx.Int ev.ts_ns) ] in
  let kind = ("kind", Jsonx.Str (body_kind_string ev.body)) in
  let rest =
    match ev.body with
    | Op_done { kind; errno; lat_ns; corr; session } ->
        [
          ("op", Jsonx.Str kind);
          ("errno", if errno = "" then Jsonx.Null else Jsonx.Str errno);
          ("lat_ns", Jsonx.Int lat_ns);
          ("corr", Jsonx.Int corr);
          ("session", Jsonx.Int session);
        ]
    | Slow_op { kind; lat_ns; threshold_ns; corr; session } ->
        [
          ("op", Jsonx.Str kind);
          ("lat_ns", Jsonx.Int lat_ns);
          ("threshold_ns", Jsonx.Int threshold_ns);
          ("corr", Jsonx.Int corr);
          ("session", Jsonx.Int session);
        ]
    | Recovery_begin { trigger } -> [ ("trigger", Jsonx.Str trigger) ]
    | Recovery_end { ok; seeded; replayed } ->
        [ ("ok", Jsonx.Bool ok); ("seeded", Jsonx.Bool seeded); ("replayed", Jsonx.Int replayed) ]
    | Span_begin { name } -> [ ("span", Jsonx.Str name) ]
    | Span_end { name; ns } -> [ ("span", Jsonx.Str name); ("ns", Jsonx.Int ns) ]
    | Ckpt_poison -> []
    | Ckpt_fold { ops } -> [ ("ops", Jsonx.Int ops) ]
    | Ckpt_fallback { reason } | Degradation { reason } -> [ ("reason", Jsonx.Str reason) ]
    | Bug_fired { id } -> [ ("bug", Jsonx.Str id) ]
    | Session_event { session; _ } -> [ ("session", Jsonx.Int session) ]
  in
  Jsonx.Obj ((base @ [ kind ]) @ rest)

let to_json ?n t = Jsonx.List (List.map event_json (tail ?n t))
