(** The dentry cache: (directory inode, name) -> lookup result.

    Caches both positive entries (the child's inode number and kind) and
    negative entries (the name is known absent) — negative dentries are a
    notorious source of base-filesystem bugs, which is exactly why the
    paper's shadow "does not use a dentry cache, and instead always performs
    path lookup from the root inode" (§3.3).  The lookup-depth bench (E7)
    measures what that choice costs. *)

type result = Present of { ino : Rae_vfs.Types.ino; kind : Rae_vfs.Types.kind } | Absent

type t

val create : capacity:int -> t
val find : t -> dir:Rae_vfs.Types.ino -> name:string -> result option
val add : t -> dir:Rae_vfs.Types.ino -> name:string -> result -> unit

val invalidate : t -> dir:Rae_vfs.Types.ino -> name:string -> unit
(** Drop one entry (on create/unlink/rename of [name] in [dir]). *)

val invalidate_dir : t -> dir:Rae_vfs.Types.ino -> unit
(** Drop every entry under a directory (on rmdir or rename of the directory
    itself).  Entries are indexed by directory, so this touches only that
    directory's entries, not the whole cache. *)

val clear : t -> unit
(** Contained reboot: drop the whole cache. *)

val length : t -> int
val stats : t -> Lru.stats
