(** The operation log: RAE's record of "the gap between the applications'
    view and the on-disk state" (paper §3.2).

    Every operation the base executes is recorded together with its
    outcome (return value, new file descriptors, new inode numbers).  When
    the base commits — making the window durable — the log is discarded
    and the descriptor table is snapshotted, so the log is always exactly
    the suffix of operations whose effects live only in the base's
    volatile memory.

    The log lives in the RAE controller, outside the base filesystem's
    untrusted state: a contained reboot wipes the base, not the log. *)

type t

val create : unit -> t

val record : t -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome -> unit
(** Append one executed operation with the outcome the application saw. *)

val entries : t -> Rae_vfs.Op.recorded list
(** The current window, oldest first. *)

val length : t -> int

val next_seq : t -> int
(** The seq the next {!record} will assign.  Monotonic across
    {!checkpoint}s (pruning discards entries, not numbering), so a caller
    can remember a seq and later ask for the suffix recorded since. *)

val entries_from : t -> seq:int -> Rae_vfs.Op.recorded list
(** The window entries with [r.seq >= seq], oldest first — the Δ suffix a
    checkpoint-seeded recovery replays.  O(Δ), not O(window).  A [seq]
    older than the window start returns the whole window. *)

val select_from : t -> seq:int -> (Rae_vfs.Op.t -> bool) -> Rae_vfs.Op.recorded list
(** The entries of [entries_from t ~seq] whose operation satisfies the
    predicate, in the same order, built in one pass over the window. *)

val checkpoint :
  t -> fds:(Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list -> unit
(** The base committed: discard the window and snapshot the descriptor
    table as of the new trusted state. *)

val fd_snapshot : t -> (Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list
(** Descriptors open at the last commit (the S0 descriptor table). *)

val total_recorded : t -> int
(** Operations ever recorded (monotonic): {!next_seq}. *)

val total_discarded : t -> int
(** Operations discarded by checkpoints (monotonic): {!next_seq} minus
    the window. *)

val max_window : t -> int
(** Largest window length observed — bounds worst-case recovery work. *)
