(** The receive side of a frame stream: one connection's undecoded byte
    backlog, used by {!Server} and {!Srv_client} alike.

    Reads are appended and whole frames are decoded from the front.  A
    decoded frame only advances the backlog's start; its live bytes move
    only when an append runs out of room, into a buffer at least twice
    the size unless they fit in half of the current one.  A frame that
    arrives in many pieces, and a read that brings many frames, therefore
    cost a constant number of copies per byte. *)

type t

val create : unit -> t

val length : t -> int
(** Bytes appended and not yet decoded. *)

val append : t -> string -> int -> int -> unit
(** [append t s off n] appends [s[off, off + n)]. *)

val next : t -> Wire.decode_result
(** Decode the first whole frame and drop its bytes.  [Need_more] and
    [Fail] leave the backlog as it was.  An emptied backlog keeps a
    buffer of up to 64 KiB for the next partial frame. *)

val clear : t -> unit
(** Drop the backlog and its buffer. *)
