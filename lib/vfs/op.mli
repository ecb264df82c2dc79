(** The filesystem operation AST.

    RAE's recovery protocol is defined over "the operation sequence that
    tracks the gap between the applications' view and the on-disk state"
    (paper §3.2).  This module is that vocabulary: operations, their results,
    and recorded outcomes.  The recorder ({!Rae_core.Oplog}), the workload
    generators, the trace replayer and the cross-checker all work on these
    values. *)

type t =
  | Create of Path.t * int  (** create an empty regular file with mode *)
  | Mkdir of Path.t * int
  | Unlink of Path.t
  | Rmdir of Path.t
  | Open of Path.t * Types.open_flags
  | Close of Types.fd
  | Pread of Types.fd * int * int  (** fd, offset, length *)
  | Pwrite of Types.fd * int * string  (** fd, offset, data *)
  | Lookup of Path.t
  | Stat of Path.t
  | Fstat of Types.fd
  | Readdir of Path.t
  | Rename of Path.t * Path.t
  | Truncate of Path.t * int
  | Link of Path.t * Path.t  (** hard link: existing, new *)
  | Symlink of string * Path.t  (** target string, link path *)
  | Readlink of Path.t
  | Chmod of Path.t * int
  | Fsync of Types.fd
  | Sync

type value =
  | Unit
  | Fd of Types.fd
  | Ino of Types.ino
  | Data of string
  | Len of int
  | St of Types.stat
  | Names of string list  (** sorted directory listing *)

type outcome = value Errno.result
(** What an execution of an operation produced. *)

type recorded = { op : t; outcome : outcome; seq : int }
(** One oplog entry: the operation, its result as seen by the application,
    and its sequence number in the recorded window. *)

type op_kind =
  | K_create | K_mkdir | K_unlink | K_rmdir | K_open | K_close | K_pread
  | K_pwrite | K_lookup | K_stat | K_fstat | K_readdir | K_rename
  | K_truncate | K_link | K_symlink | K_readlink | K_chmod | K_fsync | K_sync

val kind : t -> op_kind
val kind_to_string : op_kind -> string
val all_kinds : op_kind list

val is_mutation : t -> bool
(** Does the operation (when successful) change filesystem state? *)

val is_sync : t -> bool
(** [Fsync]/[Sync] — the operations a shadow never executes (paper §3.3:
    the shadow omits the sync family and never writes to disk). *)

val is_pure_read : t -> bool
(** [Pread], [Stat], [Fstat], [Lookup], [Readdir], [Readlink]: operations
    that change no state recovery rebuilds — no clock tick, no descriptor,
    no allocation, no overlay block (there is no atime).  Not
    {!is_mutation}'s complement: a read-only [Open] and a [Close] are not
    mutations, yet they move the descriptor table. *)

val pp : Format.formatter -> t -> unit
val pp_value : Format.formatter -> value -> unit
val pp_outcome : Format.formatter -> outcome -> unit
val pp_recorded : Format.formatter -> recorded -> unit

val value_equal : ?ignore_times:bool -> value -> value -> bool
(** Structural equality of results, optionally ignoring stat timestamps. *)

val outcome_equal : ?ignore_times:bool -> outcome -> outcome -> bool

val to_string : t -> string
