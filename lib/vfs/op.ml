type t =
  | Create of Path.t * int
  | Mkdir of Path.t * int
  | Unlink of Path.t
  | Rmdir of Path.t
  | Open of Path.t * Types.open_flags
  | Close of Types.fd
  | Pread of Types.fd * int * int
  | Pwrite of Types.fd * int * string
  | Lookup of Path.t
  | Stat of Path.t
  | Fstat of Types.fd
  | Readdir of Path.t
  | Rename of Path.t * Path.t
  | Truncate of Path.t * int
  | Link of Path.t * Path.t
  | Symlink of string * Path.t
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
  | Names of string list

type outcome = value Errno.result
type recorded = { op : t; outcome : outcome; seq : int }

type op_kind =
  | K_create | K_mkdir | K_unlink | K_rmdir | K_open | K_close | K_pread
  | K_pwrite | K_lookup | K_stat | K_fstat | K_readdir | K_rename
  | K_truncate | K_link | K_symlink | K_readlink | K_chmod | K_fsync | K_sync

let kind = function
  | Create _ -> K_create
  | Mkdir _ -> K_mkdir
  | Unlink _ -> K_unlink
  | Rmdir _ -> K_rmdir
  | Open _ -> K_open
  | Close _ -> K_close
  | Pread _ -> K_pread
  | Pwrite _ -> K_pwrite
  | Lookup _ -> K_lookup
  | Stat _ -> K_stat
  | Fstat _ -> K_fstat
  | Readdir _ -> K_readdir
  | Rename _ -> K_rename
  | Truncate _ -> K_truncate
  | Link _ -> K_link
  | Symlink _ -> K_symlink
  | Readlink _ -> K_readlink
  | Chmod _ -> K_chmod
  | Fsync _ -> K_fsync
  | Sync -> K_sync

let kind_to_string = function
  | K_create -> "create"
  | K_mkdir -> "mkdir"
  | K_unlink -> "unlink"
  | K_rmdir -> "rmdir"
  | K_open -> "open"
  | K_close -> "close"
  | K_pread -> "pread"
  | K_pwrite -> "pwrite"
  | K_lookup -> "lookup"
  | K_stat -> "stat"
  | K_fstat -> "fstat"
  | K_readdir -> "readdir"
  | K_rename -> "rename"
  | K_truncate -> "truncate"
  | K_link -> "link"
  | K_symlink -> "symlink"
  | K_readlink -> "readlink"
  | K_chmod -> "chmod"
  | K_fsync -> "fsync"
  | K_sync -> "sync"

let all_kinds =
  [
    K_create; K_mkdir; K_unlink; K_rmdir; K_open; K_close; K_pread; K_pwrite;
    K_lookup; K_stat; K_fstat; K_readdir; K_rename; K_truncate; K_link;
    K_symlink; K_readlink; K_chmod; K_fsync; K_sync;
  ]

let is_mutation = function
  | Create _ | Mkdir _ | Unlink _ | Rmdir _ | Pwrite _ | Rename _ | Truncate _
  | Link _ | Symlink _ | Chmod _ ->
      true
  | Open (_, flags) -> flags.Types.creat || flags.Types.trunc
  | Close _ | Pread _ | Lookup _ | Stat _ | Fstat _ | Readdir _ | Readlink _
  | Fsync _ | Sync ->
      false

let is_sync = function Fsync _ | Sync -> true | _ -> false

(* No wildcard: a new op kind must be classified here. *)
let is_pure_read = function
  | Pread _ | Stat _ | Fstat _ | Lookup _ | Readdir _ | Readlink _ -> true
  | Create _ | Mkdir _ | Unlink _ | Rmdir _ | Open _ | Close _ | Pwrite _ | Rename _
  | Truncate _ | Link _ | Symlink _ | Chmod _ | Fsync _ | Sync ->
      false

let pp ppf op =
  let p = Path.pp in
  match op with
  | Create (path, mode) -> Format.fprintf ppf "create(%a, %03o)" p path mode
  | Mkdir (path, mode) -> Format.fprintf ppf "mkdir(%a, %03o)" p path mode
  | Unlink path -> Format.fprintf ppf "unlink(%a)" p path
  | Rmdir path -> Format.fprintf ppf "rmdir(%a)" p path
  | Open (path, flags) -> Format.fprintf ppf "open(%a, %a)" p path Types.pp_flags flags
  | Close fd -> Format.fprintf ppf "close(%d)" fd
  | Pread (fd, off, len) -> Format.fprintf ppf "pread(%d, %d, %d)" fd off len
  | Pwrite (fd, off, data) -> Format.fprintf ppf "pwrite(%d, %d, <%d bytes>)" fd off (String.length data)
  | Lookup path -> Format.fprintf ppf "lookup(%a)" p path
  | Stat path -> Format.fprintf ppf "stat(%a)" p path
  | Fstat fd -> Format.fprintf ppf "fstat(%d)" fd
  | Readdir path -> Format.fprintf ppf "readdir(%a)" p path
  | Rename (src, dst) -> Format.fprintf ppf "rename(%a, %a)" p src p dst
  | Truncate (path, size) -> Format.fprintf ppf "truncate(%a, %d)" p path size
  | Link (src, dst) -> Format.fprintf ppf "link(%a, %a)" p src p dst
  | Symlink (target, link) -> Format.fprintf ppf "symlink(%S, %a)" target p link
  | Readlink path -> Format.fprintf ppf "readlink(%a)" p path
  | Chmod (path, mode) -> Format.fprintf ppf "chmod(%a, %03o)" p path mode
  | Fsync fd -> Format.fprintf ppf "fsync(%d)" fd
  | Sync -> Format.pp_print_string ppf "sync"

let pp_value ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Fd fd -> Format.fprintf ppf "fd:%d" fd
  | Ino ino -> Format.fprintf ppf "ino:%d" ino
  | Data s ->
      if String.length s <= 16 then Format.fprintf ppf "data:%S" s
      else Format.fprintf ppf "data:<%d bytes>" (String.length s)
  | Len n -> Format.fprintf ppf "len:%d" n
  | St st -> Types.pp_stat ppf st
  | Names names -> Format.fprintf ppf "[%s]" (String.concat "; " names)

let pp_outcome ppf = function
  | Ok v -> Format.fprintf ppf "Ok %a" pp_value v
  | Error e -> Format.fprintf ppf "Error %a" Errno.pp e

let pp_recorded ppf r =
  Format.fprintf ppf "#%d %a -> %a" r.seq pp r.op pp_outcome r.outcome

let value_equal ?(ignore_times = false) a b =
  match (a, b) with
  | Unit, Unit -> true
  | Fd x, Fd y -> x = y
  | Ino x, Ino y -> x = y
  | Data x, Data y -> String.equal x y
  | Len x, Len y -> x = y
  | St x, St y -> Types.stat_equal ~ignore_times x y
  | Names x, Names y -> List.equal String.equal x y
  | (Unit | Fd _ | Ino _ | Data _ | Len _ | St _ | Names _), _ -> false

let outcome_equal ?(ignore_times = false) a b =
  match (a, b) with
  | Ok x, Ok y -> value_equal ~ignore_times x y
  | Error x, Error y -> Errno.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

let to_string op = Format.asprintf "%a" pp op
