(* The select-based Unix-socket transport: one select(2) wakeup per
   scheduler turn, so concurrent clients get their requests batched
   exactly as the loopback transport batches them. *)

module Itbl = Rae_util.Tbl.Int

type link = { fd : Unix.file_descr; wbuf : Buffer.t (* bytes the socket refused *) }

type t = {
  listen_fd : Unix.file_descr;
  links : link Itbl.t;
  mutable order : int list;
  mutable next_link : int;
  mutable lost : int list;  (* dropped by a failed write; the next poll reports them *)
  timeout : float;  (* select timeout: the idle turn rate *)
  rbuf : Bytes.t;
      (* One read buffer for the daemon's life: at 64 KiB it is over the
         minor heap's size limit, so a fresh one per wakeup went straight
         to the major heap. *)
}

let create ~path ~timeout =
  (* A write to a link whose peer has gone must fail with EPIPE, which
     drops the link, instead of killing the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  {
    listen_fd = fd;
    links = Itbl.create 16;
    order = [];
    next_link = 1;
    lost = [];
    timeout;
    rbuf = Bytes.create 65536;
  }

let drop t id =
  match Itbl.find_opt t.links id with
  | None -> ()
  | Some link ->
      (try Unix.close link.fd with Unix.Unix_error _ -> ());
      Itbl.remove t.links id;
      t.order <- List.filter (fun l -> l <> id) t.order

let lose t id =
  drop t id;
  t.lost <- id :: t.lost

(* Flush as much queued output as the socket accepts; the rest stays
   queued for the next writable turn. *)
let flush_link t id link =
  let s = Buffer.contents link.wbuf in
  if s <> "" then
    match Unix.write_substring link.fd s 0 (String.length s) with
    | n ->
        Buffer.clear link.wbuf;
        if n < String.length s then Buffer.add_substring link.wbuf s n (String.length s - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> lose t id

let poll t =
  let live =
    List.filter_map (fun id -> Itbl.find_opt t.links id |> Option.map (fun l -> (id, l))) t.order
  in
  let rds = t.listen_fd :: List.map (fun (_, l) -> l.fd) live in
  let wrs = List.filter_map (fun (_, l) -> if Buffer.length l.wbuf > 0 then Some l.fd else None) live in
  match Unix.select rds wrs [] t.timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | readable, writable, _ ->
      List.iter (fun (id, link) -> if List.memq link.fd writable then flush_link t id link) live;
      let evs = ref [] in
      if List.memq t.listen_fd readable then begin
        match Unix.accept t.listen_fd with
        | fd, _ ->
            Unix.set_nonblock fd;
            let id = t.next_link in
            t.next_link <- id + 1;
            Itbl.replace t.links id { fd; wbuf = Buffer.create 256 };
            t.order <- t.order @ [ id ];
            evs := Transport.Accepted id :: !evs
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      end;
      let buf = t.rbuf in
      List.iter
        (fun (id, link) ->
          (* A link the flush above dropped has a closed descriptor, whose
             number the accept may already have reused. *)
          if List.memq link.fd readable && Itbl.mem t.links id then
            match Unix.read link.fd buf 0 (Bytes.length buf) with
            | 0 ->
                drop t id;
                evs := Transport.Closed id :: !evs
            | n -> evs := Transport.Data (id, Bytes.sub_string buf 0 n) :: !evs
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
            | exception Unix.Unix_error _ ->
                drop t id;
                evs := Transport.Closed id :: !evs)
        live;
      let lost = List.map (fun id -> Transport.Closed id) t.lost in
      t.lost <- [];
      List.rev_append !evs lost

(* Write the slice straight from the server's buffer; only what the
   socket refuses is copied, into the link's queue.  While the queue
   holds bytes every later slice joins it, so bytes leave in order. *)
let send t id buf off len =
  match Itbl.find_opt t.links id with
  | None -> ()
  | Some link when Buffer.length link.wbuf > 0 -> Buffer.add_subbytes link.wbuf buf off len
  | Some link -> (
      match Unix.write link.fd buf off len with
      | n -> if n < len then Buffer.add_subbytes link.wbuf buf (off + n) (len - n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          Buffer.add_subbytes link.wbuf buf off len
      | exception Unix.Unix_error _ -> lose t id)

let close t id =
  (match Itbl.find_opt t.links id with Some link -> flush_link t id link | None -> ());
  drop t id
