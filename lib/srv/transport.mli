(** Transport abstraction: how bytes reach the {!Server}.

    A transport owns links (numbered by the transport itself) and reports
    edge-triggered events; {!Drive} binds any transport to a server,
    shuttling bytes both ways and running one scheduler turn per tick.
    Two implementations exist: the deterministic in-memory {!Loopback}
    (tests, benches, the demo) and the select-based Unix-socket loop
    {!Socket_transport} (the daemon). *)

type event =
  | Accepted of int  (** a new link appeared *)
  | Data of int * string  (** bytes arrived on a link *)
  | Closed of int  (** the peer went away *)

module type S = sig
  type t

  val poll : t -> event list
  (** Collect pending events.  Must not block indefinitely; an empty list
      means no activity. *)

  val send : t -> int -> bytes -> int -> int -> unit
  (** [send t link buf off len] sends [buf[off, off+len)] toward the
      peer.  The slice is borrowed from the server's output buffer and
      is valid only during the call: an implementation copies whatever
      it keeps.  Unknown links are ignored. *)

  val close : t -> int -> unit
  (** Drop a link (server-initiated). *)
end

module Drive (T : S) : sig
  type t

  val create : T.t -> Server.t -> t

  val tick : t -> int
  (** One event-loop turn: poll the transport into the server, run one
      scheduler {!Server.step}, hand each connection's output to
      [T.send] with {!Server.drain}, close links the server dropped.
      Returns the number of requests dispatched. *)
end
