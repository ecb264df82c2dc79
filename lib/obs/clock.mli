(** The one clock every timestamp in the system is read from.

    [now_ns] reads CLOCK_MONOTONIC, in nanoseconds, through an
    allocation-free stub: wall time that never steps backwards.  Unlike
    the process CPU time ([Sys.time]) it counts time spent blocked, does
    not add up across domains, and Linux usually serves it from the vDSO
    without a system call.  The tracer, the flight recorder, the controller's
    recovery phases and the server all default to it, so their
    timestamps land on one timeline. *)

val now_ns : unit -> int64
