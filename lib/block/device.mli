(** First-class block device handles.

    A [Device.t] is the capability through which a filesystem touches
    storage.  The shadow filesystem receives a {!read_only} handle — the
    paper's invariant that "the shadow never writes to the disk" is thereby
    enforced by construction, not by convention. *)

exception Io_error of string
(** Raised by a faulty device (see {!Fault}); filesystems map it to
    [Errno.EIO]. *)

exception Read_only_device
(** Raised when writing through a {!read_only} handle.  Reaching this is a
    bug in the shadow, never expected behaviour. *)

type t = {
  dev_read : int -> bytes;
  dev_write : int -> bytes -> unit;
  dev_flush : unit -> unit;
  dev_block_size : int;
  dev_nblocks : int;
}

val of_disk : Disk.t -> t

val read : t -> int -> bytes
(** A fresh buffer the caller owns. *)

val write : t -> int -> bytes -> unit
(** Copies: once the call returns, the caller may write through its
    buffer again, and what the device holds does not change with it.
    Every handle built here, by {!Crashsim} and by {!Fault} keeps this
    contract; a handle made by hand must keep it too. *)

val flush : t -> unit
val block_size : t -> int
val nblocks : t -> int

val read_only : t -> t
(** A handle whose write and flush raise {!Read_only_device}. *)

val counting : t -> t * (unit -> int * int)
(** [counting dev] wraps [dev]; the returned thunk reports the (reads,
    writes) issued through the wrapper. *)
