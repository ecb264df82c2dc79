(** The executable specification filesystem.

    A pure, map-based model of POSIX-subset filesystem semantics.  This
    plays the role the paper assigns to the formal specification of the
    verified shadow: the shadow and the base are both property-tested
    against it ("lightweight formal methods", as the paper's AWS S3
    citation), and the end-to-end recovery tests use it as the oracle for
    "the resulting essential filesystem states adhere to the API semantics"
    (paper §2.2, state reconstruction).

    Semantics notes shared by every implementation in this repository:
    - inode and fd numbers are allocated lowest-free, so correct
      implementations agree on them exactly;
    - logical time ticks once per successful state-changing operation;
      [st_mtime]/[st_ctime] carry these ticks;
    - directories report [st_size = 0]; symlinks report the target length;
    - symlink targets are stored verbatim and must parse as absolute paths
      at traversal time (else [ENOENT]); at most
      {!Rae_vfs.Types.max_symlink_depth} indirections ([ELOOP]);
    - hard links to directories are refused with [EISDIR];
    - unlinked-but-open files survive until the last descriptor closes
      (orphan semantics). *)

type t

val make : ?max_fds:int -> ?max_file_size:int -> unit -> t
(** A fresh filesystem containing only the root directory.  [max_fds]
    defaults to 1024; [max_file_size] to {!Rae_format.Layout.max_file_size}. *)

include Rae_vfs.Fs_intf.S with type t := t

val exec : t -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome
(** {!Rae_vfs.Fs_intf.Dispatch} applied to this module. *)

(** A pure snapshot of the *essential state* (paper §2.2: on-disk
    structures and file descriptors), used to compare implementations. *)
module State : sig
  type entry = {
    e_path : string;  (** canonical absolute path *)
    e_ino : Rae_vfs.Types.ino;
    e_kind : Rae_vfs.Types.kind;
    e_size : int;
    e_nlink : int;
    e_mode : int;
    e_content : string;  (** file data, or symlink target; "" for dirs *)
  }

  type fd_entry = { f_fd : Rae_vfs.Types.fd; f_ino : Rae_vfs.Types.ino; f_flags : Rae_vfs.Types.open_flags }

  type t = { entries : entry list; fds : fd_entry list; time : int64 }
  (** [entries] sorted by path; [fds] sorted by fd. *)

  val equal : ?ignore_times:bool -> t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val diff : t -> t -> string list
  (** Human-readable differences, empty when equal. *)
end

val snapshot : t -> State.t
(** Walk the tree and dump the essential state. *)

val time : t -> int64

val open_fds : t -> (Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list
val copy : t -> t
(** Independent deep copy (cheap: the model is persistent inside). *)
