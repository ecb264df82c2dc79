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
  dev_recycle : bytes -> unit;
  dev_block_size : int;
  dev_nblocks : int;
}
(** [dev_read] is the one read primitive: a wrapper that replaces it
    (as {!counting}, {!Fault} and {!Crashsim} do) sees every read,
    those that refill a handed-back buffer included.  A handle derived
    by record update keeps [dev_recycle], and with it the spare buffer
    of the handle {!of_disk} built. *)

val of_disk : Disk.t -> t
(** A handle that holds at most one handed-back buffer, its spare: a
    read refills the spare through {!Disk.read_into} if there is one,
    and otherwise reads a fresh copy.  A hand-back while the spare is
    held replaces it, and the earlier buffer is dropped.  Like the disk,
    the spare belongs to one domain. *)

val read : t -> int -> bytes
(** [read t blk] returns a buffer the caller owns exclusively, with
    every byte written by this read.  It may be one handed back through
    {!recycle}, never one that anything else still holds.  Every handle
    built here, by {!Crashsim} and by {!Fault} keeps this contract; a
    handle made by hand must keep it too. *)

val recycle : t -> bytes -> unit
(** [recycle t buf] hands [buf] back for a later {!read} to refill.
    The caller gives [buf] up: neither it nor anything it handed [buf]
    to may read, write or keep it afterwards, and it must not hand the
    same buffer back twice, because a later read overwrites it in
    place and two reads would share it.
    @raise Invalid_argument when [buf] is not one block long. *)

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
