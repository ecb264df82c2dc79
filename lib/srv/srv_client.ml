open Rae_vfs
module Itbl = Rae_util.Tbl.Int

type io = {
  io_send : string -> unit;
  io_recv : unit -> string option;
  io_close : unit -> unit;
}

type notice =
  | Degraded of string
  | Recovered of { seq : int; trigger : string; wall_us : int }

type config = { max_wait : int; max_busy_retries : int; reconnect : bool }

let default_config = { max_wait = 10_000; max_busy_retries = 64; reconnect = true }

(* A client-visible descriptor.  [vfd] is the session-virtual descriptor
   the server knows; it changes on reconnect while the public number —
   the hashtable key — never does. *)
type fd_rec = {
  mutable vfd : int;
  fr_path : Path.t;
  fr_flags : Types.open_flags;
  mutable stale : bool;
}

type t = {
  config : config;
  dial : unit -> io option;
  mutable io : io option;  (* None = connection lost (or detached) *)
  rx : Rx.t;  (* undecoded byte backlog *)
  mutable sid : int;
  mutable next_req : int;
  mutable corr : int;  (* correlation id stamped on every Op_req; 0 = none *)
  fds : fd_rec Itbl.t;  (* public fd -> record *)
  mutable notices_rev : notice list;
  mutable n_recovered : int;
  mutable degraded_reason : string option;
  mutable n_busy_retries : int;
  mutable n_reconnects : int;
  mutable n_stale : int;
  mutable detached : bool;
}

let record_notice t (frame : Wire.frame) =
  match frame with
  | Wire.Note_degraded { reason } ->
      t.degraded_reason <- Some reason;
      t.notices_rev <- Degraded reason :: t.notices_rev
  | Wire.Note_recovered { seq; trigger; wall_us } ->
      t.n_recovered <- t.n_recovered + 1;
      t.notices_rev <- Recovered { seq; trigger; wall_us } :: t.notices_rev
  | _ -> ()

(* Wait for the frame [matcher] accepts, absorbing recovery notices and
   skipping stale replies on the way.  The recv budget bounds the total
   polls so a silent or babbling peer cannot hang the client. *)
let await t io matcher =
  let budget = ref t.config.max_wait in
  let rec next () =
    match Rx.next t.rx with
    | Wire.Frame (f, _) -> Ok f
    | Wire.Fail _ -> Error `Lost (* desynchronized stream: the connection is dead *)
    | Wire.Need_more ->
        if !budget <= 0 then Error `Timeout
        else begin
          decr budget;
          match io.io_recv () with
          | None -> Error `Lost
          | Some bytes ->
              Rx.append t.rx bytes 0 (String.length bytes);
              next ()
        end
  in
  let rec loop () =
    match next () with
    | Error _ as e -> e
    | Ok ((Wire.Note_degraded _ | Wire.Note_recovered _) as f) ->
        record_notice t f;
        loop ()
    | Ok (Wire.Err { errno; msg }) -> Error (`Srv (errno, msg))
    | Ok f -> ( match matcher f with Some v -> Ok v | None -> loop ())
  in
  loop ()

let fresh_req t =
  let req = t.next_req in
  t.next_req <- req + 1;
  req

(* One request/reply exchange with no retry logic; [op] already carries
   session-virtual descriptors. *)
let roundtrip t io op =
  let req = fresh_req t in
  io.io_send (Wire.encode (Wire.Op_req { req; corr = t.corr; op }));
  await t io (function
    | Wire.Op_reply { req = r; outcome } when r = req -> Some (`Reply outcome)
    | Wire.Busy { req = r; retry_after_ms = _ } when r = req -> Some `Busy
    | _ -> None)

let attach t io =
  Rx.clear t.rx;
  io.io_send (Wire.encode (Wire.Hello { version = Wire.protocol_version }));
  match await t io (function Wire.Hello_ok { session; _ } -> Some session | _ -> None) with
  | Ok session ->
      t.sid <- session;
      Ok ()
  | Error `Lost -> Error "connection lost during hello"
  | Error `Timeout -> Error "no reply to hello"
  | Error (`Srv (errno, msg)) ->
      Error (Printf.sprintf "server refused attach: %s (%s)" msg (Errno.to_string errno))

(* Re-attach leaves creat/excl/trunc behind: re-validation must never
   create, conflict with or truncate what is already on disk. *)
let reattach_flags flags = { flags with Types.creat = false; excl = false; trunc = false }

let revalidate t io =
  let pubs = List.sort Int.compare (Itbl.fold (fun pub _ acc -> pub :: acc) t.fds []) in
  List.iter
    (fun pub ->
      match Itbl.find_opt t.fds pub with
      | None -> ()
      | Some r when r.stale -> ()
      | Some r -> (
          let reopened =
            match roundtrip t io (Op.Open (r.fr_path, reattach_flags r.fr_flags)) with
            | Ok (`Reply (Ok (Op.Fd vfd))) -> (
                match roundtrip t io (Op.Fstat vfd) with
                | Ok (`Reply (Ok (Op.St _))) -> Some vfd
                | _ -> None)
            | _ -> None
          in
          match reopened with
          | Some vfd -> r.vfd <- vfd
          | None ->
              r.stale <- true;
              t.n_stale <- t.n_stale + 1))
    pubs

let try_reconnect t =
  if not t.config.reconnect then false
  else
    match t.dial () with
    | None -> false
    | Some io -> (
        match attach t io with
        | Ok () ->
            t.io <- Some io;
            t.n_reconnects <- t.n_reconnects + 1;
            revalidate t io;
            true
        | Error _ ->
            io.io_close ();
            false)

(* ---- descriptor translation ---- *)

let vfd_of t pub =
  match Itbl.find_opt t.fds pub with
  | Some r when not r.stale -> Ok r.vfd
  | Some _ | None -> Error Errno.EBADF

let translate_in t op =
  match op with
  | Op.Close pub -> Result.map (fun v -> Op.Close v) (vfd_of t pub)
  | Op.Pread (pub, off, len) -> Result.map (fun v -> Op.Pread (v, off, len)) (vfd_of t pub)
  | Op.Pwrite (pub, off, data) -> Result.map (fun v -> Op.Pwrite (v, off, data)) (vfd_of t pub)
  | Op.Fstat pub -> Result.map (fun v -> Op.Fstat v) (vfd_of t pub)
  | Op.Fsync pub -> Result.map (fun v -> Op.Fsync v) (vfd_of t pub)
  | op -> Ok op

(* POSIX-style allocation: the lowest unused public number, so client code
   that expects open/close cycles to reuse descriptor numbers behaves as it
   would on a local filesystem. *)
let alloc_pub t =
  let rec go n = if Itbl.mem t.fds n then go (n + 1) else n in
  go 0

let translate_out t op outcome =
  match (op, outcome) with
  | Op.Open (path, flags), Ok (Op.Fd vfd) ->
      let pub = alloc_pub t in
      Itbl.replace t.fds pub { vfd; fr_path = path; fr_flags = flags; stale = false };
      Ok (Op.Fd pub)
  | Op.Close pub, Ok Op.Unit ->
      Itbl.remove t.fds pub;
      outcome
  | _ -> outcome

(* ---- the retry/reconnect state machine ---- *)

let max_reconnects_per_op = 1

let rec attempt t op ~busy ~reconnected =
  match t.io with
  | None ->
      if reconnected < max_reconnects_per_op && try_reconnect t then
        attempt t op ~busy ~reconnected:(reconnected + 1)
      else Error Errno.EIO
  | Some io -> (
      match translate_in t op with
      | Error e -> Error e
      | Ok wire_op -> (
          match roundtrip t io wire_op with
          | Ok (`Reply outcome) -> translate_out t op outcome
          | Ok `Busy ->
              if busy >= t.config.max_busy_retries then Error Errno.EAGAIN
              else begin
                t.n_busy_retries <- t.n_busy_retries + 1;
                attempt t op ~busy:(busy + 1) ~reconnected
              end
          | Error (`Srv (errno, _)) ->
              (* the server rejected us at protocol level and is dropping
                 the connection; reconnecting would only repeat it *)
              io.io_close ();
              t.io <- None;
              Error errno
          | Error `Lost ->
              io.io_close ();
              t.io <- None;
              attempt t op ~busy ~reconnected
          | Error `Timeout -> Error Errno.EIO))

let exec t op =
  if t.detached then Error Errno.EIO
  else
    match op with
    | Op.Close pub when (match Itbl.find_opt t.fds pub with Some r -> r.stale | None -> false)
      ->
        (* the server-side descriptor died with the old session; closing
           still frees the client slot *)
        Itbl.remove t.fds pub;
        Ok Op.Unit
    | op -> attempt t op ~busy:0 ~reconnected:0

(* ---- session API ---- *)

let connect ?(config = default_config) ~dial () =
  match dial () with
  | None -> Error "dial failed"
  | Some io -> (
      let t =
        {
          config;
          dial;
          io = Some io;
          rx = Rx.create ();
          sid = 0;
          next_req = 1;
          corr = 0;
          fds = Itbl.create 16;
          notices_rev = [];
          n_recovered = 0;
          degraded_reason = None;
          n_busy_retries = 0;
          n_reconnects = 0;
          n_stale = 0;
          detached = false;
        }
      in
      match attach t io with
      | Ok () -> Ok t
      | Error msg ->
          io.io_close ();
          Error msg)

let session t = t.sid
let set_corr t corr = t.corr <- corr
let corr t = t.corr

let ping t =
  match t.io with
  | None -> false
  | Some io -> (
      let token = fresh_req t in
      io.io_send (Wire.encode (Wire.Ping { token }));
      match await t io (function Wire.Pong { token = tk } when tk = token -> Some () | _ -> None)
      with
      | Ok () -> true
      | Error _ ->
          io.io_close ();
          t.io <- None;
          false)

let server_stats t =
  match t.io with
  | None -> Error Errno.EIO
  | Some io -> (
      io.io_send (Wire.encode Wire.Stats_req);
      match await t io (function Wire.Stats_reply s -> Some s | _ -> None) with
      | Ok s -> Ok s
      | Error (`Srv (errno, _)) ->
          io.io_close ();
          t.io <- None;
          Error errno
      | Error (`Lost | `Timeout) ->
          io.io_close ();
          t.io <- None;
          Error Errno.EIO)

(* One control request/reply over the live connection; connection loss
   or timeout closes the link (same policy as [server_stats]), but a
   served [Err] — e.g. ENOENT for an unknown bundle — leaves it open. *)
let control t frame matcher =
  match t.io with
  | None -> Error Errno.EIO
  | Some io -> (
      io.io_send (Wire.encode frame);
      match await t io matcher with
      | Ok v -> Ok v
      | Error (`Srv (errno, _)) -> Error errno
      | Error (`Lost | `Timeout) ->
          io.io_close ();
          t.io <- None;
          Error Errno.EIO)

let metrics t =
  control t Wire.Metrics_req (function Wire.Metrics_reply { text } -> Some text | _ -> None)

let bundles t =
  control t Wire.Bundles_req (function Wire.Bundles_reply { names } -> Some names | _ -> None)

let fetch_bundle t name =
  control t
    (Wire.Bundle_req { name })
    (function Wire.Bundle_reply { name = n; data } when n = name -> Some data | _ -> None)

let detach t =
  (match t.io with
  | Some io ->
      io.io_send (Wire.encode Wire.Detach);
      ignore (await t io (function Wire.Detach_ok -> Some () | _ -> None));
      io.io_close ()
  | None -> ());
  t.io <- None;
  t.detached <- true

(* ---- introspection ---- *)

let notices t = List.rev t.notices_rev
let recovered_seen t = t.n_recovered
let degraded t = t.degraded_reason
let busy_retries t = t.n_busy_retries
let reconnects t = t.n_reconnects
let stale_fds t = t.n_stale

(* ---- the Fs_intf.S surface ---- *)

let ino_of = function Ok (Op.Ino i) -> Ok i | Error e -> Error e | Ok _ -> Error Errno.EIO
let unit_of = function Ok Op.Unit -> Ok () | Error e -> Error e | Ok _ -> Error Errno.EIO
let fd_of = function Ok (Op.Fd fd) -> Ok fd | Error e -> Error e | Ok _ -> Error Errno.EIO
let data_of = function Ok (Op.Data s) -> Ok s | Error e -> Error e | Ok _ -> Error Errno.EIO
let len_of = function Ok (Op.Len n) -> Ok n | Error e -> Error e | Ok _ -> Error Errno.EIO
let st_of = function Ok (Op.St st) -> Ok st | Error e -> Error e | Ok _ -> Error Errno.EIO
let names_of = function Ok (Op.Names ns) -> Ok ns | Error e -> Error e | Ok _ -> Error Errno.EIO

let create t path ~mode = ino_of (exec t (Op.Create (path, mode)))
let mkdir t path ~mode = ino_of (exec t (Op.Mkdir (path, mode)))
let unlink t path = unit_of (exec t (Op.Unlink path))
let rmdir t path = unit_of (exec t (Op.Rmdir path))
let openf t path flags = fd_of (exec t (Op.Open (path, flags)))
let close t fd = unit_of (exec t (Op.Close fd))
let pread t fd ~off ~len = data_of (exec t (Op.Pread (fd, off, len)))
let pwrite t fd ~off data = len_of (exec t (Op.Pwrite (fd, off, data)))
let lookup t path = ino_of (exec t (Op.Lookup path))
let stat t path = st_of (exec t (Op.Stat path))
let fstat t fd = st_of (exec t (Op.Fstat fd))
let readdir t path = names_of (exec t (Op.Readdir path))
let rename t src dst = unit_of (exec t (Op.Rename (src, dst)))
let truncate t path ~size = unit_of (exec t (Op.Truncate (path, size)))
let link t src dst = unit_of (exec t (Op.Link (src, dst)))
let symlink t ~target link = ino_of (exec t (Op.Symlink (target, link)))
let readlink t path = data_of (exec t (Op.Readlink path))
let chmod t path ~mode = unit_of (exec t (Op.Chmod (path, mode)))
let fsync t fd = unit_of (exec t (Op.Fsync fd))
let sync t = unit_of (exec t Op.Sync)
