module Vclock = Rae_util.Vclock
module Itbl = Rae_util.Tbl.Int

type t = {
  srv : Server.t;
  lb_clock : Vclock.t;
  turn_latency : int64;
  eps : endpoint Itbl.t;
  mutable order : int list;  (* link ids, connect order *)
  mutable next_link : int;
  mutable activity : bool;  (* events polled or bytes sent this turn *)
  mutable tick_fn : unit -> int;
}

and endpoint = {
  ep_hub : t;
  ep_to_server : Buffer.t;
  ep_from_server : Buffer.t;
  mutable ep_client_closed : bool;
  mutable ep_server_closed : bool;
  mutable ep_announced : bool;
  mutable ep_close_announced : bool;
}

(* ---- the Transport.S implementation ---- *)

let poll t =
  let evs = ref [] in
  let dead = ref [] in
  List.iter
    (fun link ->
      match Itbl.find_opt t.eps link with
      | None -> ()
      | Some ep ->
          if not ep.ep_announced then begin
            ep.ep_announced <- true;
            evs := Transport.Accepted link :: !evs
          end;
          if Buffer.length ep.ep_to_server > 0 && not ep.ep_server_closed then begin
            let s = Buffer.contents ep.ep_to_server in
            Buffer.clear ep.ep_to_server;
            evs := Transport.Data (link, s) :: !evs
          end;
          if ep.ep_client_closed && not ep.ep_close_announced then begin
            ep.ep_close_announced <- true;
            evs := Transport.Closed link :: !evs
          end;
          if ep.ep_client_closed && ep.ep_server_closed then dead := link :: !dead)
    t.order;
  if !dead <> [] then begin
    List.iter (Itbl.remove t.eps) !dead;
    t.order <- List.filter (fun l -> not (List.mem l !dead)) t.order
  end;
  if !evs <> [] then t.activity <- true;
  List.rev !evs

let send t link buf off len =
  match Itbl.find_opt t.eps link with
  | None -> ()
  | Some ep ->
      Buffer.add_subbytes ep.ep_from_server buf off len;
      t.activity <- true

let close t link =
  match Itbl.find_opt t.eps link with None -> () | Some ep -> ep.ep_server_closed <- true

module Drive = Transport.Drive (struct
  type nonrec t = t

  let poll = poll
  let send = send
  let close = close
end)

(* ---- hub API ---- *)

let create ?(turn_latency_ns = 0L) ?clock srv =
  let lb_clock = match clock with Some c -> c | None -> Vclock.create () in
  let t =
    {
      srv;
      lb_clock;
      turn_latency = turn_latency_ns;
      eps = Itbl.create 16;
      order = [];
      next_link = 1;
      activity = false;
      tick_fn = (fun () -> 0);
    }
  in
  let d = Drive.create t srv in
  t.tick_fn <- (fun () -> Drive.tick d);
  t

let server t = t.srv
let clock t = t.lb_clock

let pump t =
  t.activity <- false;
  let served = t.tick_fn () in
  if (t.activity || served > 0) && t.turn_latency > 0L then
    Vclock.advance t.lb_clock t.turn_latency;
  served

let pump_until_idle ?(max_turns = 10_000) t =
  let total = ref 0 in
  let turns = ref 0 in
  let continue = ref true in
  while !continue && !turns < max_turns do
    incr turns;
    let served = pump t in
    total := !total + served;
    if served = 0 && not t.activity then continue := false
  done;
  !total

let connect t =
  let link = t.next_link in
  t.next_link <- link + 1;
  let ep =
    {
      ep_hub = t;
      ep_to_server = Buffer.create 256;
      ep_from_server = Buffer.create 256;
      ep_client_closed = false;
      ep_server_closed = false;
      ep_announced = false;
      ep_close_announced = false;
    }
  in
  Itbl.replace t.eps link ep;
  t.order <- t.order @ [ link ];
  ep

let drain ep =
  let s = Buffer.contents ep.ep_from_server in
  Buffer.clear ep.ep_from_server;
  s

let recv = drain

let io ep =
  {
    Srv_client.io_send =
      (fun s -> if not (ep.ep_client_closed || ep.ep_server_closed) then Buffer.add_string ep.ep_to_server s);
    io_recv =
      (fun () ->
        if Buffer.length ep.ep_from_server > 0 then Some (drain ep)
        else if ep.ep_server_closed || ep.ep_client_closed then None
        else begin
          ignore (pump ep.ep_hub);
          if Buffer.length ep.ep_from_server > 0 then Some (drain ep) else Some ""
        end);
    io_close = (fun () -> ep.ep_client_closed <- true);
  }

let dial t () = Some (io (connect t))
