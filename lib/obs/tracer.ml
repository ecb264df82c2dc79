type event =
  | Begin of { name : string; cat : string; ts : int64 }
  | End of { name : string; ts : int64 }
  | Instant of { name : string; cat : string; ts : int64 }

type t = {
  clock : unit -> int64;
  mutable on : bool;
  mutable buf : event array;
  mutable len : int;
  mutable start : int;  (* index of the oldest retained event *)
  max_events : int;  (* 0 = unbounded *)
  mutable s_dropped : int;
  (* (name, was_recorded): the stack stays balanced across enable/disable
     toggles — a span opened while disabled must not emit an E on close. *)
  mutable stack : (string * bool) list;
  mutable last_ts : int64;
  lock : Mutex.t;
      (* serializes every public mutator (and export, which touches the
         monotone clock cache): tracers are shared across the controller
         and the subsystems it drives, which the domain-safety lint
         wants runnable on separate domains.  [now]/[push] are internal
         and only ever run under the lock. *)
}

let default_clock = Clock.now_ns

let create ?(clock = default_clock) ?(max_events = 0) () =
  {
    clock;
    on = false;
    buf = [||];
    len = 0;
    start = 0;
    max_events = (if max_events <= 0 then 0 else max 16 max_events);
    s_dropped = 0;
    stack = [];
    last_ts = 0L;
    lock = Mutex.create ();
  }

let locked t f = Mutex.protect t.lock f
let enable t = locked t (fun () -> t.on <- true)
let disable t = locked t (fun () -> t.on <- false)
let enabled t = t.on

(* Timestamps are clamped monotone: combined virtual+CPU clocks can wobble
   backwards across clock swaps, and trace viewers reject that. *)
let now t =
  let ts = t.clock () in
  if Int64.compare ts t.last_ts > 0 then t.last_ts <- ts;
  t.last_ts

let push t ev =
  let cap = Array.length t.buf in
  if t.len < cap then begin
    t.buf.((t.start + t.len) mod cap) <- ev;
    t.len <- t.len + 1
  end
  else if t.max_events > 0 && cap >= t.max_events then begin
    (* At the cap the buffer becomes a ring: overwrite the oldest event
       and advance — a long soak run holds [max_events] slots, forever. *)
    t.buf.(t.start) <- ev;
    t.start <- (t.start + 1) mod cap;
    t.s_dropped <- t.s_dropped + 1
  end
  else begin
    let ncap = max 64 (2 * t.len) in
    let ncap = if t.max_events > 0 then min ncap t.max_events else ncap in
    let buf = Array.make ncap ev in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.((t.start + i) mod cap)
    done;
    t.buf <- buf;
    t.start <- 0;
    t.buf.(t.len) <- ev;
    t.len <- t.len + 1
  end

let span_begin t ?(cat = "rae") name =
  locked t (fun () ->
      if t.on then begin
        push t (Begin { name; cat; ts = now t });
        t.stack <- (name, true) :: t.stack
      end
      else t.stack <- (name, false) :: t.stack)

let span_end t =
  locked t (fun () ->
      match t.stack with
      | [] -> ()
      | (name, recorded) :: rest ->
          t.stack <- rest;
          if recorded then push t (End { name; ts = now t }))

let instant t ?(cat = "rae") name =
  locked t (fun () -> if t.on then push t (Instant { name; cat; ts = now t }))

let depth t = locked t (fun () -> List.length t.stack)

let nth_event t i =
  let cap = Array.length t.buf in
  t.buf.((t.start + i) mod cap)

let events t = locked t (fun () -> List.init t.len (fun i -> nth_event t i))
let dropped t = t.s_dropped

let clear t =
  locked t (fun () ->
      t.buf <- [||];
      t.len <- 0;
      t.start <- 0;
      t.s_dropped <- 0)

(* ---- Chrome trace_event export ---- *)

let us_of_ns ns = Int64.to_float ns /. 1000.

let event_line ~ph ~name ~cat ~ts =
  Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":1%s}"
    (Jsonx.escape name) (Jsonx.escape cat) ph (us_of_ns ts)
    (if ph = 'i' then ",\"s\":\"t\"" else "")

let to_chrome t =
  locked t @@ fun () ->
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b line
  in
  (* [open_spans] mirrors the B/E bracketing of what we actually emit:
     after a capped ring wraps, the tail can start with E events whose B
     was overwritten — those are dropped so the export stays balanced,
     and only spans whose B survived are synthetically closed at the
     end. *)
  let open_spans = ref [] in
  for i = 0 to t.len - 1 do
    match nth_event t i with
    | Begin { name; cat; ts } ->
        open_spans := name :: !open_spans;
        emit (event_line ~ph:'B' ~name ~cat ~ts)
    | End { name; ts } -> (
        match !open_spans with
        | top :: rest when top = name ->
            open_spans := rest;
            emit (event_line ~ph:'E' ~name ~cat:"rae" ~ts)
        | _ -> ())
    | Instant { name; cat; ts } -> emit (event_line ~ph:'i' ~name ~cat ~ts)
  done;
  (* Close anything still open so the trace always balances. *)
  let ts = now t in
  List.iter (fun name -> emit (event_line ~ph:'E' ~name ~cat:"rae" ~ts)) !open_spans;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write_chrome t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_chrome t))

(* ---- parser / validator ---- *)

type chrome_event = { ph : char; ev_name : string; ts_us : float }

let parse_chrome s =
  let event i ev =
    match
      ( Option.bind (Jsonx.member "ph" ev) Jsonx.to_str_opt,
        Option.bind (Jsonx.member "name" ev) Jsonx.to_str_opt,
        Option.bind (Jsonx.member "ts" ev) Jsonx.to_float_opt )
    with
    | Some ph, Some ev_name, Some ts_us when String.length ph = 1 ->
        Ok { ph = ph.[0]; ev_name; ts_us }
    | _ -> Error (Printf.sprintf "malformed event %d" i)
  in
  match Jsonx.parse s with
  | Error msg -> Error msg
  | Ok json -> (
      match Option.bind (Jsonx.member "traceEvents" json) Jsonx.to_list_opt with
      | None -> Error "missing traceEvents list"
      | Some evs ->
          let rec go i acc = function
            | [] -> Ok (List.rev acc)
            | ev :: rest -> (
                match event i ev with Ok e -> go (i + 1) (e :: acc) rest | Error _ as e -> e)
          in
          go 0 [] evs)

let validate_chrome s =
  match parse_chrome s with
  | Error _ as e -> e
  | Ok evs ->
      let rec check stack last = function
        | [] -> if stack = [] then Ok (List.length evs) else Error "unclosed B events"
        | { ph; ev_name; ts_us } :: rest ->
            if ts_us < last then Error (Printf.sprintf "non-monotone ts at %S" ev_name)
            else (
              match ph with
              | 'B' -> check (ev_name :: stack) ts_us rest
              | 'E' -> (
                  match stack with
                  | top :: stack' ->
                      if top = ev_name then check stack' ts_us rest
                      else Error (Printf.sprintf "E %S does not match open span %S" ev_name top)
                  | [] -> Error (Printf.sprintf "E %S with no open span" ev_name))
              | 'i' -> check stack ts_us rest
              | c -> Error (Printf.sprintf "unknown phase %C" c))
      in
      check [] neg_infinity evs
