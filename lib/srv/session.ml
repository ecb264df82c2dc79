open Rae_vfs
module Itbl = Rae_util.Tbl.Int

type config = { max_fds : int; max_inflight : int; max_ops_per_turn : int }

let default_config = { max_fds = 64; max_inflight = 16; max_ops_per_turn = 8 }

type t = {
  sid : int;
  config : config;
  queue : (int * int * Op.t) Queue.t;  (* req, corr, op *)
  mutable queued : int;
  fd_map : int Itbl.t;  (* virtual fd -> controller fd *)
  mutable next_vfd : int;
  mutable s_last_active : int;
  mutable s_served : int;
  mutable s_busy : int;
}

let create ~id config =
  {
    sid = id;
    config;
    queue = Queue.create ();
    queued = 0;
    fd_map = Itbl.create 16;
    next_vfd = 0;
    s_last_active = 0;
    s_served = 0;
    s_busy = 0;
  }

let id t = t.sid

let enqueue t ~req ~corr op =
  if t.queued >= t.config.max_inflight then `Busy
  else begin
    Queue.add (req, corr, op) t.queue;
    t.queued <- t.queued + 1;
    `Queued
  end

let dequeue t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some entry ->
      t.queued <- t.queued - 1;
      Some entry

let pending t = t.queued
let pending_entries t = Queue.fold (fun acc (req, corr, _op) -> (req, corr) :: acc) [] t.queue |> List.rev

let real_fd t vfd = Itbl.find_opt t.fd_map vfd

let translate t op =
  let lookup vfd k =
    match real_fd t vfd with Some fd -> Ok (k fd) | None -> Error Errno.EBADF
  in
  match op with
  | Op.Open _ when Itbl.length t.fd_map >= t.config.max_fds -> Error Errno.EMFILE
  | Op.Close vfd -> lookup vfd (fun fd -> Op.Close fd)
  | Op.Pread (vfd, off, len) -> lookup vfd (fun fd -> Op.Pread (fd, off, len))
  | Op.Pwrite (vfd, off, data) -> lookup vfd (fun fd -> Op.Pwrite (fd, off, data))
  | Op.Fstat vfd -> lookup vfd (fun fd -> Op.Fstat fd)
  | Op.Fsync vfd -> lookup vfd (fun fd -> Op.Fsync fd)
  | op -> Ok op

let bind_fd t ~real =
  let vfd = t.next_vfd in
  t.next_vfd <- t.next_vfd + 1;
  Itbl.replace t.fd_map vfd real;
  vfd

let release_fd t ~vfd = Itbl.remove t.fd_map vfd

let open_fds t =
  Itbl.fold (fun vfd fd acc -> (vfd, fd) :: acc) t.fd_map []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let fd_count t = Itbl.length t.fd_map
let touch t ~tick = t.s_last_active <- tick
let last_active t = t.s_last_active
let served t = t.s_served
let note_served t = t.s_served <- t.s_served + 1
let busy_sent t = t.s_busy
let note_busy t = t.s_busy <- t.s_busy + 1
