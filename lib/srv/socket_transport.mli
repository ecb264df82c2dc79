(** The Unix-domain-socket transport [rfsd] serves over: non-blocking
    sockets and one [select(2)] per {!poll}, which is one scheduler turn
    under {!Transport.Drive}.

    {!send} writes a slice straight from the server's output buffer, so
    a reply reaches the socket with [Unix.write]'s copy alone.  Only the
    bytes the socket refuses are copied, into the link's queue; while the
    queue holds bytes, later slices join it, and {!poll} flushes it when
    the socket turns writable.  A link whose write fails (its peer has
    gone) is dropped, and the next {!poll} reports it [Closed]. *)

type t

val create : path:string -> timeout:float -> t
(** Listen on a Unix socket at [path] (replacing a stale one).  [timeout]
    bounds each {!poll}'s wait, in seconds.  Also ignores [SIGPIPE] for
    the process, so a write to a vanished peer fails instead of killing
    it. *)

val poll : t -> Transport.event list
val send : t -> int -> bytes -> int -> int -> unit
val close : t -> int -> unit
