(** A blk-mq-style multi-queue asynchronous block layer.

    The paper names blk-mq as one of the performance-oriented components
    whose interactions make base filesystems buggy (§1, §2.3).  The base
    filesystem submits requests here; requests sit in per-queue software
    queues where same-block writes are merged, and complete in batches when
    the layer is kicked.  The shadow bypasses this layer entirely and reads
    the device synchronously — exactly the contrast Figure 2 draws. *)

type req
(** An in-flight request handle. *)

type stats = {
  submitted : int;
  completed : int;
  merged : int;  (** write requests absorbed by a later same-block write *)
  kicks : int;
  max_queue_depth : int;
}

type t

val create : ?nr_queues:int -> ?batch:int -> ?carry:t -> Device.t -> t
(** [create dev] builds the queueing layer; [nr_queues] software queues
    (default 4) are selected per-request round-robin, [batch] bounds how many
    requests one {!kick} dispatches per queue (default 32).  A queue that
    replaces [carry] starts its counters and high-water depth at [carry]'s,
    so its {!stats} cover the life of the mount, not of the instance; none
    of [carry]'s requests come along. *)

val submit_read : t -> int -> req
(** Enqueue a read of the given block.  The result is available from
    {!wait}. *)

val submit_write : t -> int -> bytes -> req
(** Enqueue a write.  If an earlier write to the same block is still queued
    in the same software queue it is merged (superseded).

    The request owns [data] until it completes: it is not copied, and
    what reaches the device is its content at dispatch.  The caller must
    not write through it before then ({!wait} or {!drain} completes it). *)

val kick : t -> unit
(** Dispatch up to [batch] requests from every queue to the device, in
    the order they were submitted. *)

val wait : t -> req -> bytes option
(** Drive the layer until [req] completes; [Some data] for reads, [None] for
    writes.  Propagates {!Device.Io_error} from the device. *)

val failed : req -> bool
(** True when the request completed with a device error (reported by the
    first {!wait}). *)

val drain : t -> unit
(** Complete everything outstanding and flush the device. *)

val in_flight : t -> int
val stats : t -> stats

val register_obs : Rae_obs.Metrics.t -> ?prefix:string -> (unit -> t) -> unit
(** Register this layer's counters with a metrics registry.  The instance
    is re-read through the getter at every sample, so registration survives
    a contained reboot replacing the queue layer.  [prefix] defaults to
    ["blkmq"]. *)
