module Itbl = Rae_util.Tbl.Int

type event = Accepted of int | Data of int * string | Closed of int

module type S = sig
  type t

  val poll : t -> event list
  val send : t -> int -> bytes -> int -> int -> unit
  val close : t -> int -> unit
end

module Drive (T : S) = struct
  type t = {
    transport : T.t;
    server : Server.t;
    links : int Itbl.t;  (* transport link -> server conn id *)
  }

  let create transport server = { transport; server; links = Itbl.create 16 }

  let tick d =
    List.iter
      (fun ev ->
        match ev with
        | Accepted link -> Itbl.replace d.links link (Server.open_conn d.server)
        | Data (link, bytes) -> (
            match Itbl.find_opt d.links link with
            | Some cid -> Server.feed d.server cid bytes
            | None -> ())
        | Closed link -> (
            match Itbl.find_opt d.links link with
            | Some cid ->
                Server.close_conn d.server cid;
                Itbl.remove d.links link
            | None -> ()))
      (T.poll d.transport);
    let served = Server.step d.server in
    let dead = ref [] in
    Itbl.iter
      (fun link cid ->
        Server.drain d.server cid (T.send d.transport link);
        if Server.conn_closed d.server cid then dead := link :: !dead)
      d.links;
    List.iter
      (fun link ->
        T.close d.transport link;
        Itbl.remove d.links link)
      !dead;
    served
end
