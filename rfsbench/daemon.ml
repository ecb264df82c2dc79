(* The daemon harness: start the built rfsd, drive it over its Unix
   socket from one generator thread with two closed-loop sessions (one
   request in flight each), check every reply against the spec, then
   SIGTERM and reap it.  Every timestamp is client side. *)

open Rae_vfs
module Wire = Rae_srv.Wire

exception Broken of string

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

(* Ops sent and ops that missed (no reply, EIO/EAGAIN, Busy, or an
   outcome the spec did not predict), across every daemon of the run. *)
let attempted = ref 0
let failed = ref 0
let failures = ref []

let miss msg =
  incr failed;
  if List.length !failures < 5 then failures := msg :: !failures

type inflight = { g : Gen.gop; sent : int64; expect : Op.outcome }

type conn = {
  sid : int;  (* benchmark session index: 0 or 1 *)
  fd : Unix.file_descr;
  enc : Wire.encoder;
  tx : Buffer.t;
  mutable rbuf : bytes;
  mutable rpos : int;
  mutable rlen : int;
  slots : int array;  (* generator slot -> virtual fd from the Open reply *)
  mutable req : int;
  mutable inflight : inflight option;
  mutable ctl : Wire.frame option;
  mutable notes : int;
}

type t = {
  pid : int;
  out : Unix.file_descr;  (* the daemon's stdout *)
  conns : conn array;
  oracle : Oracle.t;
  gens : Gen.t array;
  mutable triggers : int;
}

(* Children still to reap if the run dies early. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let sessions = 2
let bug = "crafted-name-panic"

(* ---- process ---- *)

let spawn ~rfsd ~sock =
  let argv = [| rfsd; "--socket"; sock; "--bugs"; bug |] in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not
             (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
             || String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS" kv))
    |> Array.of_list
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env rfsd argv env Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  (pid, r)

let connect ~pid ~sock =
  let deadline = Int64.add (Stats.now ()) 30_000_000_000L in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            broken "rfsd exited before accepting connections");
        if Stats.now () > deadline then broken "rfsd did not accept connections within 30 s";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* CPU nanoseconds the daemon's thread has run, from /proc/<pid>/schedstat. *)
let cpu_ns pid = Scanf.sscanf (read_file (Printf.sprintf "/proc/%d/schedstat" pid)) "%f" Fun.id

let peak_rss_mib pid =
  let line =
    List.find
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* ---- wire ---- *)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let fill c =
  if c.rpos > 0 then begin
    Bytes.blit c.rbuf c.rpos c.rbuf 0 c.rlen;
    c.rpos <- 0
  end;
  if c.rlen + 65536 > Bytes.length c.rbuf then begin
    let b = Bytes.create (2 * (c.rlen + 65536)) in
    Bytes.blit c.rbuf 0 b 0 c.rlen;
    c.rbuf <- b
  end;
  match Unix.read c.fd c.rbuf c.rlen 65536 with
  | 0 -> broken "rfsd closed session %d" c.sid
  | n -> c.rlen <- c.rlen + n

let complete c ~req ~outcome ~now ~on_reply =
  match c.inflight with
  | Some f when req = c.req ->
      c.inflight <- None;
      let actual = Oracle.norm outcome in
      if not (Op.outcome_equal f.expect actual) then
        miss (Oracle.describe ~op:f.g.Gen.op ~expect:f.expect ~actual);
      (match outcome with Ok (Op.Fd v) when f.g.Gen.bind >= 0 -> c.slots.(f.g.Gen.bind) <- v | _ -> ());
      on_reply c f.g (Int64.sub now f.sent) now
  | _ -> broken "session %d: reply to unexpected request %d" c.sid req

let rec decode_all c ~on_reply =
  match Wire.decode c.rbuf ~pos:c.rpos ~len:c.rlen with
  | Wire.Need_more -> ()
  | Wire.Fail e -> broken "session %d: undecodable frame: %s" c.sid (Format.asprintf "%a" Wire.pp_error e)
  | Wire.Frame (frame, used) ->
      c.rpos <- c.rpos + used;
      c.rlen <- c.rlen - used;
      (match frame with
      | Wire.Op_reply { req; outcome } -> complete c ~req ~outcome ~now:(Stats.now ()) ~on_reply
      | Wire.Busy { req; _ } ->
          (* refused, never queued: the op is lost *)
          complete c ~req ~outcome:(Error Errno.EAGAIN) ~now:(Stats.now ()) ~on_reply
      | Wire.Note_recovered _ -> c.notes <- c.notes + 1
      | Wire.Note_degraded { reason } -> miss ("Note_degraded: " ^ reason)
      | f -> c.ctl <- Some f);
      decode_all c ~on_reply

let send h c (g : Gen.gop) =
  c.req <- c.req + 1;
  Buffer.clear c.tx;
  Wire.encode_into c.enc (Wire.Op_req { req = c.req; corr = 0; op = Gen.subst c.slots g.Gen.op }) c.tx;
  let sent = Stats.now () in
  write_all c.fd (Buffer.contents c.tx);
  (* Predicted while the daemon works on the request. *)
  let expect = Oracle.norm (Oracle.predict h.oracle ~session:c.sid g) in
  c.inflight <- Some { g; sent; expect };
  incr attempted;
  if g.Gen.trigger then h.triggers <- h.triggers + 1

(* The closed loop: every session [source] feeds keeps one request in
   flight until its source runs dry. *)
let drive h ~source ~on_reply =
  let next c = match source c with Some g -> send h c g | None -> () in
  Array.iter next h.conns;
  let on_reply c g lat now =
    on_reply c g lat now;
    next c
  in
  let rec loop () =
    match List.filter (fun c -> c.inflight <> None) (Array.to_list h.conns) with
    | [] -> ()
    | busy ->
        let readable =
          match Unix.select (List.map (fun c -> c.fd) busy) [] [] 10.0 with
          | [], _, _ -> broken "no reply from rfsd within 10 s"
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun c ->
            if List.memq c.fd readable then begin
              fill c;
              decode_all c ~on_reply
            end)
          busy;
        loop ()
  in
  loop ()

let control c frame =
  Buffer.clear c.tx;
  Wire.encode_into c.enc frame c.tx;
  write_all c.fd (Buffer.contents c.tx);
  c.ctl <- None;
  let rec wait () =
    match c.ctl with
    | Some f ->
        c.ctl <- None;
        f
    | None ->
        (match Unix.select [ c.fd ] [] [] 10.0 with
        | [], _, _ -> broken "no control reply from rfsd within 10 s"
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        fill c;
        decode_all c ~on_reply:(fun _ _ _ _ -> broken "op reply outside a phase");
        wait ()
  in
  wait ()

(* Prometheus exposition -> counter/gauge values (histogram quantile
   lines are skipped). *)
let metrics h =
  match control h.conns.(0) Wire.Metrics_req with
  | Wire.Metrics_reply { text } ->
      let tbl = Hashtbl.create 128 in
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
            match String.split_on_char ' ' line with
            | [ name; v ] -> ( match float_of_string_opt v with Some x -> Hashtbl.replace tbl name x | None -> ())
            | _ -> ())
        (String.split_on_char '\n' text);
      tbl
  | f -> broken "expected Metrics_reply, got %s" (Format.asprintf "%a" Wire.pp_frame f)

let counter tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)
let diff before after name = counter after name -. counter before name

(* ---- lifecycle ---- *)

(* Spawn, attach both sessions, run the set-up lists (session 0's first:
   the webserver docroot's parent belongs to it) and [warmup] ops per
   session.  The caller's timed phase starts right after. *)
let start ~rfsd ~sock workload ~seed ~warmup =
  let pid, out = spawn ~rfsd ~sock in
  let conns =
    Array.init sessions (fun sid ->
        {
          sid;
          fd = connect ~pid ~sock;
          enc = Wire.encoder ();
          tx = Buffer.create 256;
          rbuf = Bytes.create 131072;
          rpos = 0;
          rlen = 0;
          slots = Array.make Gen.nslots (-1);
          req = 0;
          inflight = None;
          ctl = None;
          notes = 0;
        })
  in
  let h =
    {
      pid;
      out;
      conns;
      oracle = Oracle.create ~sessions;
      gens = Array.init sessions (fun session -> Gen.create workload ~seed ~session);
      triggers = 0;
    }
  in
  Array.iter
    (fun c ->
      match control c (Wire.Hello { version = Wire.protocol_version }) with
      | Wire.Hello_ok _ -> ()
      | f -> broken "expected Hello_ok, got %s" (Format.asprintf "%a" Wire.pp_frame f))
    conns;
  Array.iter
    (fun c ->
      let ops = ref (Gen.setup h.gens.(c.sid)) in
      drive h
        ~source:(fun c' ->
          match !ops with
          | g :: rest when c'.sid = c.sid ->
              ops := rest;
              Some g
          | _ -> None)
        ~on_reply:(fun _ _ _ _ -> ()))
    conns;
  let left = Array.make sessions warmup in
  drive h
    ~source:(fun c ->
      if left.(c.sid) = 0 then None
      else begin
        left.(c.sid) <- left.(c.sid) - 1;
        Some (Gen.next h.gens.(c.sid))
      end)
    ~on_reply:(fun _ _ _ _ -> ());
  h

(* Check the daemon's own view of the run, then SIGTERM and reap it:
   every trigger recovered, none degraded, one Note_recovered per
   recovery on every session, exit status 0 and its shutdown line. *)
let stop h =
  (* A Stats_reply follows every note sent to its session before it, so
     asking each session also drains its notes. *)
  Array.iter
    (fun c ->
      match control c Wire.Stats_req with
      | Wire.Stats_reply s ->
          if c.sid = 0 && s.Wire.ws_recoveries <> h.triggers then
            miss (Printf.sprintf "daemon counted %d recoveries for %d triggers" s.Wire.ws_recoveries h.triggers);
          if c.sid = 0 && s.Wire.ws_degraded then miss "daemon degraded";
          if c.notes <> s.Wire.ws_recoveries then
            miss
              (Printf.sprintf "session %d saw %d Note_recovered for %d recoveries" c.sid c.notes
                 s.Wire.ws_recoveries)
      | f -> broken "expected Stats_reply, got %s" (Format.asprintf "%a" Wire.pp_frame f))
    h.conns;
  Array.iter (fun c -> Unix.close c.fd) h.conns;
  Unix.kill h.pid Sys.sigterm;
  let deadline = Int64.add (Stats.now ()) 10_000_000_000L in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] h.pid with
    | 0, _ when Stats.now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill h.pid Sys.sigkill;
        snd (Unix.waitpid [] h.pid)
    | _, status -> status
  in
  let status = reap () in
  live := List.filter (( <> ) h.pid) !live;
  let ic = Unix.in_channel_of_descr h.out in
  let log = In_channel.input_all ic in
  In_channel.close ic;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> miss (Printf.sprintf "rfsd exited with status %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> miss (Printf.sprintf "rfsd killed by signal %d" n));
  if not (List.exists (String.starts_with ~prefix:"rfsd: shutting down:") (String.split_on_char '\n' log)) then
    miss "rfsd printed no shutdown line"
