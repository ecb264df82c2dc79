(** The rfs serving-layer wire protocol.

    Binary framing for the full {!Rae_vfs.Op} surface plus the
    session-control frames the server speaks (attach, detach, ping, stats,
    backpressure and recovery notifications).  Frames are length-prefixed
    with a checksummed header:

    {v
    offset  size  field
    0       2     magic 0x5253 ("RS")
    2       1     protocol version (2)
    3       1     frame type tag
    4       4     payload length (bytes)
    8       4     CRC32C over header bytes 0..7 ++ payload
    12      len   payload
    v}

    Version 2, the only version spoken, carries a client-supplied
    {e correlation id} on [Op_req] (a trailing u32) and the
    observability frames ([Metrics_req]/[Bundles_req]/[Bundle_req] and
    replies).  A header naming any other version decodes to
    [Fail (Bad_version v)].

    Decoding is total: any malformed input — bad magic, unknown version or
    frame tag, inconsistent lengths, checksum mismatch, crafted path
    components, truncation — yields {!Fail} or {!Need_more}, never an
    exception.  A peer that receives [Fail] must treat the stream as
    desynchronized and drop the connection; there is no resynchronization
    scan. *)

val protocol_version : int
(** The version this codec speaks (2). *)

val header_bytes : int
val max_payload : int
(** Upper bound on a frame payload; a length field above this is rejected
    before any allocation, so a crafted header cannot OOM the peer. *)

type server_stats = {
  ws_sessions : int;  (** currently attached sessions *)
  ws_served : int;  (** operations executed on behalf of clients *)
  ws_busy : int;  (** Busy (backpressure) frames sent *)
  ws_recoveries : int;  (** controller recoveries observed *)
  ws_degraded : bool;
}

type frame =
  | Hello of { version : int }  (** client -> server: attach a session *)
  | Hello_ok of { session : int; version : int }
  | Detach  (** client -> server: orderly close; fds are released *)
  | Detach_ok
  | Ping of { token : int }
  | Pong of { token : int }
  | Stats_req
  | Stats_reply of server_stats
  | Op_req of { req : int; corr : int; op : Rae_vfs.Op.t }
      (** [corr] is the client-supplied correlation id threaded end to
          end (flight recorder, postmortem bundles); [0] means none.
          v1 frames decode with [corr = 0]. *)
  | Op_reply of { req : int; outcome : Rae_vfs.Op.outcome }
  | Busy of { req : int; retry_after_ms : int }
      (** backpressure: the request was *not* queued; retry after the hint *)
  | Err of { errno : Rae_vfs.Errno.t; msg : string }
      (** protocol-level rejection (bad hello, undecodable frame, ...) *)
  | Note_degraded of { reason : string }
      (** server push: the controller entered fail-stop *)
  | Note_recovered of { seq : int; trigger : string; wall_us : int }
      (** server push: recovery [seq] (1-based controller recovery count)
          completed; [trigger]/[wall_us] come from {!Rae_core.Report} so
          clients can correlate with server-side logs *)
  | Metrics_req  (** v2: ask for the server's Prometheus exposition *)
  | Metrics_reply of { text : string }
  | Bundles_req  (** v2: list available black-box bundles *)
  | Bundles_reply of { names : string list }
  | Bundle_req of { name : string }  (** v2: fetch one bundle by name *)
  | Bundle_reply of { name : string; data : string }

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_length of int
  | Bad_checksum
  | Bad_payload of string  (** tag/field-level corruption detail *)

type decode_result =
  | Frame of frame * int  (** decoded frame and total bytes consumed *)
  | Need_more  (** the buffer holds a frame prefix; read more bytes *)
  | Fail of error  (** stream is corrupt; the connection must drop *)

val pp_error : Format.formatter -> error -> unit
val pp_frame : Format.formatter -> frame -> unit

val equal_frame : frame -> frame -> bool
(** Structural equality (outcome comparison via {!Rae_vfs.Op.outcome_equal}
    with exact timestamps). *)

type encoder
(** A growable byte buffer that frames are encoded into in place: each
    frame's header, payload and CRC32C are written at its end, so a
    payload's bytes are copied once, into the frame.  The serving layer
    keeps one per connection as that connection's pending output. *)

val encoder : unit -> encoder

val append : encoder -> frame -> unit
(** Serialize one frame, header included, after the bytes already
    pending in the encoder. *)

val pending : encoder -> int
(** Bytes appended and not yet drained. *)

val drain : encoder -> (bytes -> int -> int -> unit) -> unit
(** [drain e f] empties [e] and, if it held any bytes, calls
    [f buf off len] on them.  The slice is borrowed from the encoder: it
    is valid only during the call, so [f] copies whatever it keeps. *)

val encode_into : encoder -> frame -> Buffer.t -> unit
(** Serialize one frame, header included, appending the bytes to the
    given output buffer.  The encoder's pending bytes are left as they
    were. *)

val encode : frame -> string
(** Serialize one frame, header included.  Convenience wrapper with a
    throwaway encoder (tests, client one-shots). *)

val decode : bytes -> pos:int -> len:int -> decode_result
(** [decode buf ~pos ~len] attempts to decode one frame from
    [buf[pos..pos+len)].  Never raises. *)

val decode_string : string -> decode_result
(** Convenience wrapper over a whole string (tests, single-frame use). *)
