open Rae_vfs
module Imap = Map.Make (Int)
module Dmap = Map.Make (Int)

(* Directory entries are keyed by interned name symbols (see
   {!Rae_vfs.Intern}): lookups hash the component once instead of comparing
   strings down a [Map.Make (String)] spine, and the interner is global and
   append-only, so interned maps survive [copy] untouched.  File contents
   are chunked ({!Chunked}) so [pwrite] is O(chunk), not O(file size). *)
type node = File of Chunked.t | Dir of Types.ino Dmap.t | Symlink of string

type info = { node : node; mode : int; nlink : int; mtime : int64; ctime : int64 }

type fdinfo = { fino : Types.ino; fflags : Types.open_flags }

type state = { nodes : info Imap.t; fds : fdinfo Imap.t; time : int64 }

type t = {
  mutable st : state;
  max_fds : int;
  max_file_size : int;
  (* Fast-path machinery.  [gen] counts namespace generations: it bumps on
     every commit that adds, removes or moves a directory entry, and the
     resolution cache below is only believed when its recorded generation
     matches.  [ino_hint]/[fd_hint] are lowest-free allocation hints: every
     id strictly below the hint is allocated, so the scan starts there
     instead of at the origin — the allocator still returns the exact
     lowest free id, which the spec/shadow/base agreement depends on. *)
  mutable gen : int;
  rcache : (string list * bool, Types.ino * int) Hashtbl.t;
  mutable ino_hint : int;
  mutable fd_hint : int;
}

let max_symlink_target = 4095

let root_info = { node = Dir Dmap.empty; mode = 0o755; nlink = 2; mtime = 0L; ctime = 0L }

let make ?(max_fds = 1024) ?(max_file_size = Rae_format.Layout.max_file_size) () =
  {
    st = { nodes = Imap.singleton Types.root_ino root_info; fds = Imap.empty; time = 0L };
    max_fds;
    max_file_size;
    gen = 0;
    rcache = Hashtbl.create 64;
    ino_hint = 1;
    fd_hint = 0;
  }

let time t = t.st.time

(* The state is persistent, so copying is one record.  The resolution
   cache is the only mutable structure that would otherwise be shared:
   give the copy a fresh one.  The hints copy by value and remain valid
   lower bounds for the copied state. *)
let copy t = { t with st = t.st; rcache = Hashtbl.create 64 }

let open_fds t =
  (* [to_rev_seq] walks descending, so consing yields the ascending list
     directly — no build-then-[List.rev]. *)
  Seq.fold_left
    (fun acc (fd, f) -> (fd, f.fino, f.fflags) :: acc)
    []
    (Imap.to_rev_seq t.st.fds)

(* ---- allocation ---- *)

let alloc_ino t nodes =
  let rec go i = if Imap.mem i nodes then go (i + 1) else i in
  let i = go (max 1 t.ino_hint) in
  (* Every id in [1, i) was just observed (or previously known) allocated,
     so advancing the hint to [i] is safe even if the caller aborts and
     never claims [i]. *)
  t.ino_hint <- i;
  i

let alloc_fd t fds =
  let rec go i = if Imap.mem i fds then go (i + 1) else i in
  let i = go (max 0 t.fd_hint) in
  t.fd_hint <- i;
  i

let note_ino_freed t ino = if ino < t.ino_hint then t.ino_hint <- ino
let note_fd_freed t fd = if fd < t.fd_hint then t.fd_hint <- fd

(* [Map.exists] already stops at the first hit (the [||] spine
   short-circuits), so unlike the shadow's old [Hashtbl.fold] version this
   needs no early-exit fix. *)
let fd_refs st ino = Imap.exists (fun _ f -> f.fino = ino) st.fds

(* Reclaim a zero-linked, unreferenced non-directory node. *)
let reclaim t st ino =
  match Imap.find_opt ino st.nodes with
  | Some info when info.nlink = 0 && not (fd_refs st ino) ->
      note_ino_freed t ino;
      { st with nodes = Imap.remove ino st.nodes }
  | Some _ | None -> st

(* ---- path resolution ---- *)

let get st ino = Imap.find_opt ino st.nodes

let get_exn st ino =
  match get st ino with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Spec: dangling inode %d" ino)

(* Probe a directory map without ever growing the intern table: a name
   nobody ever inserted has no symbol and therefore no entry. *)
let dir_find entries name =
  match Intern.find name with None -> None | Some k -> Dmap.find_opt k entries

(* Walk [components] from [ino], following intermediate symlinks always and
   the final one iff [follow_last].  [budget] bounds total symlink
   expansions. *)
let rec walk st ino components ~follow_last ~budget : (Types.ino, Errno.t) Stdlib.result =
  match components with
  | [] -> Ok ino
  | name :: rest -> (
      match get st ino with
      | None -> Error Errno.EIO
      | Some { node = File _; _ } | Some { node = Symlink _; _ } -> Error Errno.ENOTDIR
      | Some { node = Dir entries; _ } -> (
          match dir_find entries name with
          | None -> Error Errno.ENOENT
          | Some child_ino -> (
              match get st child_ino with
              | None -> Error Errno.EIO
              | Some { node = Symlink target; _ } when rest <> [] || follow_last ->
                  if budget <= 0 then Error Errno.ELOOP
                  else (
                    match Path.parse target with
                    | Error _ -> Error Errno.ENOENT
                    | Ok target_components ->
                        walk st Types.root_ino (target_components @ rest) ~follow_last
                          ~budget:(budget - 1))
              | Some _ -> walk st child_ino rest ~follow_last ~budget)))

let resolve st path ~follow_last =
  walk st Types.root_ino path ~follow_last ~budget:Types.max_symlink_depth

(* Generation-guarded resolution cache.  Only successful resolutions are
   cached (negative entries would have to be invalidated on creation too);
   a stale generation means some entry moved since, so fall back to the
   walk.  Symlink targets are immutable once created, so a cached
   resolution through a symlink can only be invalidated by namespace
   changes — which bump [gen]. *)
let resolve_cached t path ~follow_last =
  match Hashtbl.find_opt t.rcache (path, follow_last) with
  | Some (ino, g) when g = t.gen -> Ok ino
  | Some _ | None -> (
      let r = resolve t.st path ~follow_last in
      match r with
      | Ok ino ->
          if Hashtbl.length t.rcache > 512 then Hashtbl.reset t.rcache;
          Hashtbl.replace t.rcache (path, follow_last) (ino, t.gen);
          r
      | Error _ -> r)

(* Resolve the parent directory of [path]; returns [(parent_ino, name)]. *)
let resolve_parent t path =
  let st = t.st in
  match Path.split_last path with
  | None -> Error Errno.EEXIST (* the root: no parent; callers map as needed *)
  | Some (parent, name) -> (
      match resolve_cached t parent ~follow_last:true with
      | Error e -> Error e
      | Ok pino -> (
          match get st pino with
          | Some { node = Dir _; _ } -> Ok (pino, name)
          | Some _ -> Error Errno.ENOTDIR
          | None -> Error Errno.EIO))

let dir_entries info = match info.node with Dir e -> Some e | File _ | Symlink _ -> None

(* Update helpers: all build a fresh state. *)
let put st ino info = { st with nodes = Imap.add ino info st.nodes }

let touch_parent st pino ~time =
  let p = get_exn st pino in
  put st pino { p with mtime = time; ctime = time }

let add_entry st pino name ino =
  let p = get_exn st pino in
  match p.node with
  | Dir entries -> put st pino { p with node = Dir (Dmap.add (Intern.id name) ino entries) }
  | File _ | Symlink _ -> invalid_arg "Spec.add_entry: parent is not a directory"

let remove_entry st pino name =
  let p = get_exn st pino in
  match p.node with
  | Dir entries -> put st pino { p with node = Dir (Dmap.remove (Intern.id name) entries) }
  | File _ | Symlink _ -> invalid_arg "Spec.remove_entry: parent is not a directory"

let bump_nlink st ino delta =
  let i = get_exn st ino in
  put st ino { i with nlink = i.nlink + delta }

(* ---- operations ---- *)

let commit t st' = t.st <- st'

(* Commit a state whose directory entries changed: invalidate the
   resolution cache by bumping the namespace generation. *)
let commit_ns t st' =
  t.gen <- t.gen + 1;
  commit t st'

let create t path ~mode =
  let st = t.st in
  if path = [] then Error Errno.EEXIST
  else if mode land lnot 0o777 <> 0 then Error Errno.EINVAL
  else
    match resolve_parent t path with
    | Error e -> Error e
    | Ok (pino, name) -> (
        match dir_entries (get_exn st pino) with
        | None -> Error Errno.ENOTDIR
        | Some entries ->
            if dir_find entries name <> None then Error Errno.EEXIST
            else begin
              let time = Int64.add st.time 1L in
              let ino = alloc_ino t st.nodes in
              let st =
                put st ino { node = File Chunked.empty; mode; nlink = 1; mtime = time; ctime = time }
              in
              let st = add_entry st pino name ino in
              let st = touch_parent st pino ~time in
              commit_ns t { st with time };
              Ok ino
            end)

let mkdir t path ~mode =
  let st = t.st in
  if path = [] then Error Errno.EEXIST
  else if mode land lnot 0o777 <> 0 then Error Errno.EINVAL
  else
    match resolve_parent t path with
    | Error e -> Error e
    | Ok (pino, name) -> (
        match dir_entries (get_exn st pino) with
        | None -> Error Errno.ENOTDIR
        | Some entries ->
            if dir_find entries name <> None then Error Errno.EEXIST
            else begin
              let time = Int64.add st.time 1L in
              let ino = alloc_ino t st.nodes in
              let st =
                put st ino { node = Dir Dmap.empty; mode; nlink = 2; mtime = time; ctime = time }
              in
              let st = add_entry st pino name ino in
              let st = bump_nlink st pino 1 in
              let st = touch_parent st pino ~time in
              commit_ns t { st with time };
              Ok ino
            end)

let find_child st pino name =
  match dir_entries (get_exn st pino) with
  | None -> Error Errno.ENOTDIR
  | Some entries -> (
      match dir_find entries name with
      | None -> Error Errno.ENOENT
      | Some ino -> Ok ino)

let unlink t path =
  let st = t.st in
  if path = [] then Error Errno.EISDIR
  else
    match resolve_parent t path with
    | Error e -> Error e
    | Ok (pino, name) -> (
        match find_child st pino name with
        | Error e -> Error e
        | Ok ino -> (
            match get_exn st ino with
            | { node = Dir _; _ } -> Error Errno.EISDIR
            | info ->
                let time = Int64.add st.time 1L in
                let st = remove_entry st pino name in
                let st = put st ino { info with nlink = info.nlink - 1; ctime = time } in
                let st = touch_parent st pino ~time in
                let st = reclaim t st ino in
                commit_ns t { st with time };
                Ok ()))

let rmdir t path =
  let st = t.st in
  if path = [] then Error Errno.EINVAL
  else
    match resolve_parent t path with
    | Error e -> Error e
    | Ok (pino, name) -> (
        match find_child st pino name with
        | Error e -> Error e
        | Ok ino -> (
            match get_exn st ino with
            | { node = File _; _ } | { node = Symlink _; _ } -> Error Errno.ENOTDIR
            | { node = Dir entries; _ } ->
                if not (Dmap.is_empty entries) then Error Errno.ENOTEMPTY
                else begin
                  let time = Int64.add st.time 1L in
                  let st = remove_entry st pino name in
                  let st = { st with nodes = Imap.remove ino st.nodes } in
                  note_ino_freed t ino;
                  let st = bump_nlink st pino (-1) in
                  let st = touch_parent st pino ~time in
                  commit_ns t { st with time };
                  Ok ()
                end))

let flags_valid (f : Types.open_flags) =
  (f.rd || f.wr)
  && (not (f.trunc && not f.wr))
  && (not (f.excl && not f.creat))
  && not (f.append && not f.wr)

let openf t path flags =
  let st = t.st in
  if not (flags_valid flags) then Error Errno.EINVAL
  else if Imap.cardinal st.fds >= t.max_fds then Error Errno.EMFILE
  else
    match resolve_cached t path ~follow_last:true with
    | Ok ino -> (
        if flags.excl then Error Errno.EEXIST
        else
          match get_exn st ino with
          | { node = Dir _; _ } -> Error Errno.EISDIR
          | { node = Symlink _; _ } -> Error Errno.ELOOP (* unreachable: followed *)
          | { node = File data; _ } as info ->
              let st, time =
                if flags.trunc && Chunked.length data > 0 then begin
                  let time = Int64.add st.time 1L in
                  (put st ino { info with node = File Chunked.empty; mtime = time; ctime = time }, time)
                end
                else (st, st.time)
              in
              let fd = alloc_fd t st.fds in
              let st = { st with fds = Imap.add fd { fino = ino; fflags = flags } st.fds; time } in
              commit t st;
              Ok fd)
    | Error Errno.ENOENT when flags.creat -> (
        match resolve_parent t path with
        | Error e -> Error e
        | Ok (pino, name) -> (
            match find_child st pino name with
            | Ok _ ->
                (* The final component is a dangling symlink: open(2) with
                   O_CREAT on it fails ENOENT in our model. *)
                Error Errno.ENOENT
            | Error Errno.ENOENT ->
                let time = Int64.add st.time 1L in
                let ino = alloc_ino t st.nodes in
                let st =
                  put st ino
                    { node = File Chunked.empty; mode = 0o644; nlink = 1; mtime = time; ctime = time }
                in
                let st = add_entry st pino name ino in
                let st = touch_parent st pino ~time in
                let fd = alloc_fd t st.fds in
                let st = { st with fds = Imap.add fd { fino = ino; fflags = flags } st.fds; time } in
                commit_ns t st;
                Ok fd
            | Error e -> Error e))
    | Error e -> Error e

let close t fd =
  let st = t.st in
  match Imap.find_opt fd st.fds with
  | None -> Error Errno.EBADF
  | Some { fino; _ } ->
      let st = { st with fds = Imap.remove fd st.fds } in
      note_fd_freed t fd;
      let st = reclaim t st fino in
      commit t st;
      Ok ()

let pread t fd ~off ~len =
  let st = t.st in
  match Imap.find_opt fd st.fds with
  | None -> Error Errno.EBADF
  | Some { fino; fflags } -> (
      if not fflags.rd then Error Errno.EBADF
      else if off < 0 || len < 0 then Error Errno.EINVAL
      else
        match get_exn st fino with
        | { node = File data; _ } -> Ok (Chunked.read data ~off ~len)
        | { node = Dir _; _ } | { node = Symlink _; _ } -> Error Errno.EISDIR)

let pwrite t fd ~off data =
  let st = t.st in
  match Imap.find_opt fd st.fds with
  | None -> Error Errno.EBADF
  | Some { fino; fflags } -> (
      if not fflags.wr then Error Errno.EBADF
      else if off < 0 then Error Errno.EINVAL
      else
        match get_exn st fino with
        | { node = Dir _; _ } | { node = Symlink _; _ } -> Error Errno.EISDIR
        | { node = File old; _ } as info ->
            let len = String.length data in
            if len = 0 then Ok 0
            else
              let eff_off = if fflags.append then Chunked.length old else off in
              if eff_off + len > t.max_file_size then Error Errno.EFBIG
              else begin
                let time = Int64.add st.time 1L in
                let st =
                  put st fino
                    { info with node = File (Chunked.write old ~off:eff_off data); mtime = time; ctime = time }
                in
                commit t { st with time };
                Ok len
              end)

let lookup t path = resolve_cached t path ~follow_last:true

let stat_of st ino =
  let info = get_exn st ino in
  let kind, size =
    match info.node with
    | File data -> (Types.Regular, Chunked.length data)
    | Dir _ -> (Types.Directory, 0)
    | Symlink target -> (Types.Symlink, String.length target)
  in
  {
    Types.st_ino = ino;
    st_kind = kind;
    st_size = size;
    st_nlink = info.nlink;
    st_mode = info.mode;
    st_mtime = info.mtime;
    st_ctime = info.ctime;
  }

let stat t path =
  match resolve_cached t path ~follow_last:true with
  | Error e -> Error e
  | Ok ino -> Ok (stat_of t.st ino)

let fstat t fd =
  match Imap.find_opt fd t.st.fds with
  | None -> Error Errno.EBADF
  | Some { fino; _ } -> Ok (stat_of t.st fino)

let readdir t path =
  match resolve_cached t path ~follow_last:true with
  | Error e -> Error e
  | Ok ino -> (
      match get_exn t.st ino with
      | { node = Dir entries; _ } ->
          (* Interned keys sort by symbol id, not alphabetically: collect
             and sort by name to keep the documented ordering. *)
          Ok
            (Dmap.fold (fun k _ acc -> Intern.name k :: acc) entries []
            |> List.sort String.compare)
      | { node = File _; _ } | { node = Symlink _; _ } -> Error Errno.ENOTDIR)

let is_dir st ino = match get st ino with Some { node = Dir _; _ } -> true | _ -> false

(* Is [ino] the directory [dir] or inside its subtree?  The spec keeps no
   parent links, so this searches the subtree; symlinks are leaves. *)
let rec within st ~dir ino =
  ino = dir
  || match get st dir with
     | Some { node = Dir entries; _ } ->
         Dmap.exists (fun _ child -> within st ~dir:child ino) entries
     | _ -> false

let rename t src dst =
  let st = t.st in
  if src = [] || dst = [] then Error Errno.EINVAL
  else if Path.equal src dst then (
    (* Same path: succeed without change iff the source exists. *)
    match resolve_parent t src with
    | Error e -> Error e
    | Ok (pino, name) -> (
        match find_child st pino name with Error e -> Error e | Ok _ -> Ok ()))
  else
    match resolve_parent t src with
    | Error e -> Error e
    | Ok (spino, sname) -> (
        match find_child st spino sname with
        | Error e -> Error e
        | Ok sino -> (
            let src_is_dir = is_dir st sino in
            match resolve_parent t dst with
            | Error e -> Error e
            | Ok (dpino, dname) -> (
                (* A directory cannot move into its own subtree, checked
                   on the resolved parent: the path alone misses a
                   destination reached through a symlink. *)
                if src_is_dir && within st ~dir:sino dpino then Error Errno.EINVAL
                else
                  let dst_existing = Result.to_option (find_child st dpino dname) in
                  match dst_existing with
                  | Some dino when dino = sino ->
                      (* Hard links to the same inode: POSIX rename is a no-op. *)
                      Ok ()
                  | _ -> (
                      let proceed st =
                        let time = Int64.add st.time 1L in
                        let st = remove_entry st spino sname in
                        let st = add_entry st dpino dname sino in
                        (* Directory moves shift the ".." accounting. *)
                        let st =
                          if src_is_dir && spino <> dpino then
                            bump_nlink (bump_nlink st spino (-1)) dpino 1
                          else st
                        in
                        let sinfo = get_exn st sino in
                        let st = put st sino { sinfo with ctime = time } in
                        let st = touch_parent st spino ~time in
                        let st = touch_parent st dpino ~time in
                        commit_ns t { st with time };
                        Ok ()
                      in
                      match dst_existing with
                      | None -> proceed st
                      | Some dino -> (
                          match (src_is_dir, get_exn st dino) with
                          | true, { node = File _; _ } | true, { node = Symlink _; _ } ->
                              Error Errno.ENOTDIR
                          | true, { node = Dir dentries; _ } ->
                              if not (Dmap.is_empty dentries) then Error Errno.ENOTEMPTY
                              else
                                (* Replace empty dir: drop it first. *)
                                let st = { st with nodes = Imap.remove dino st.nodes } in
                                let () = note_ino_freed t dino in
                                let st = remove_entry st dpino dname in
                                let st = bump_nlink st dpino (-1) in
                                proceed st
                          | false, { node = Dir _; _ } -> Error Errno.EISDIR
                          | false, dinfo ->
                              let st = remove_entry st dpino dname in
                              let st = put st dino { dinfo with nlink = dinfo.nlink - 1 } in
                              let st = reclaim t st dino in
                              proceed st)))))

let truncate t path ~size =
  let st = t.st in
  if size < 0 then Error Errno.EINVAL
  else if size > t.max_file_size then Error Errno.EFBIG
  else
    match resolve_cached t path ~follow_last:true with
    | Error e -> Error e
    | Ok ino -> (
        match get_exn st ino with
        | { node = Dir _; _ } -> Error Errno.EISDIR
        | { node = Symlink _; _ } -> Error Errno.EINVAL
        | { node = File data; _ } as info ->
            let time = Int64.add st.time 1L in
            let st =
              put st ino { info with node = File (Chunked.truncate data size); mtime = time; ctime = time }
            in
            commit t { st with time };
            Ok ())

let link t src dst =
  let st = t.st in
  if src = [] || dst = [] then Error Errno.EINVAL
  else
    match resolve_parent t src with
    | Error e -> Error e
    | Ok (spino, sname) -> (
        match find_child st spino sname with
        | Error e -> Error e
        | Ok sino ->
            if is_dir st sino then Error Errno.EISDIR
            else (
              match resolve_parent t dst with
              | Error e -> Error e
              | Ok (dpino, dname) -> (
                  match find_child st dpino dname with
                  | Ok _ -> Error Errno.EEXIST
                  | Error Errno.ENOENT ->
                      let time = Int64.add st.time 1L in
                      let st = add_entry st dpino dname sino in
                      let sinfo = get_exn st sino in
                      let st = put st sino { sinfo with nlink = sinfo.nlink + 1; ctime = time } in
                      let st = touch_parent st dpino ~time in
                      commit_ns t { st with time };
                      Ok ()
                  | Error e -> Error e)))

let symlink t ~target path =
  let st = t.st in
  if path = [] then Error Errno.EEXIST
  else if String.length target = 0 then Error Errno.ENOENT
  else if String.length target > max_symlink_target then Error Errno.ENAMETOOLONG
  else
    match resolve_parent t path with
    | Error e -> Error e
    | Ok (pino, name) -> (
        match find_child st pino name with
        | Ok _ -> Error Errno.EEXIST
        | Error Errno.ENOENT ->
            let time = Int64.add st.time 1L in
            let ino = alloc_ino t st.nodes in
            let st =
              put st ino { node = Symlink target; mode = 0o777; nlink = 1; mtime = time; ctime = time }
            in
            let st = add_entry st pino name ino in
            let st = touch_parent st pino ~time in
            commit_ns t { st with time };
            Ok ino
        | Error e -> Error e)

let readlink t path =
  let st = t.st in
  match resolve_cached t path ~follow_last:false with
  | Error e -> Error e
  | Ok ino -> (
      match get_exn st ino with
      | { node = Symlink target; _ } -> Ok target
      | { node = File _; _ } | { node = Dir _; _ } -> Error Errno.EINVAL)

let chmod t path ~mode =
  let st = t.st in
  if mode land lnot 0o777 <> 0 then Error Errno.EINVAL
  else
    match resolve_cached t path ~follow_last:true with
    | Error e -> Error e
    | Ok ino ->
        let time = Int64.add st.time 1L in
        let info = get_exn st ino in
        let st = put st ino { info with mode; ctime = time } in
        commit t { st with time };
        Ok ()

let fsync t fd =
  match Imap.find_opt fd t.st.fds with None -> Error Errno.EBADF | Some _ -> Ok ()

let sync _t = Ok ()

module Self = struct
  type nonrec t = t

  let create = create
  let mkdir = mkdir
  let unlink = unlink
  let rmdir = rmdir
  let openf = openf
  let close = close
  let pread = pread
  let pwrite = pwrite
  let lookup = lookup
  let stat = stat
  let fstat = fstat
  let readdir = readdir
  let rename = rename
  let truncate = truncate
  let link = link
  let symlink = symlink
  let readlink = readlink
  let chmod = chmod
  let fsync = fsync
  let sync = sync
end

module D = Fs_intf.Dispatch (Self)

let exec = D.exec

(* ---- snapshots ---- *)

module State = struct
  type entry = {
    e_path : string;
    e_ino : Types.ino;
    e_kind : Types.kind;
    e_size : int;
    e_nlink : int;
    e_mode : int;
    e_content : string;
  }

  type fd_entry = { f_fd : Types.fd; f_ino : Types.ino; f_flags : Types.open_flags }

  type t = { entries : entry list; fds : fd_entry list; time : int64 }

  let entry_equal ?(ignore_times = false) a b =
    ignore ignore_times;
    a.e_path = b.e_path && a.e_ino = b.e_ino && a.e_kind = b.e_kind && a.e_size = b.e_size
    && a.e_nlink = b.e_nlink && a.e_mode = b.e_mode && String.equal a.e_content b.e_content

  let fd_equal a b = a.f_fd = b.f_fd && a.f_ino = b.f_ino && a.f_flags = b.f_flags

  let equal ?(ignore_times = false) a b =
    ignore ignore_times;
    List.equal (entry_equal ~ignore_times) a.entries b.entries
    && List.equal fd_equal a.fds b.fds

  let pp_entry ppf e =
    Format.fprintf ppf "%s ino=%d %a size=%d nlink=%d mode=%03o" e.e_path e.e_ino Types.pp_kind
      e.e_kind e.e_size e.e_nlink e.e_mode

  let pp ppf t =
    Format.fprintf ppf "@[<v>time=%Ld@," t.time;
    List.iter (fun e -> Format.fprintf ppf "%a@," pp_entry e) t.entries;
    List.iter
      (fun f -> Format.fprintf ppf "fd %d -> ino %d (%a)@," f.f_fd f.f_ino Types.pp_flags f.f_flags)
      t.fds;
    Format.fprintf ppf "@]"

  let diff a b =
    let index entries = List.map (fun e -> (e.e_path, e)) entries in
    let ia = index a.entries and ib = index b.entries in
    let diffs = ref [] in
    let note fmt = Format.kasprintf (fun s -> diffs := s :: !diffs) fmt in
    List.iter
      (fun (path, ea) ->
        match List.assoc_opt path ib with
        | None -> note "only in first: %s" path
        | Some eb ->
            if not (entry_equal ea eb) then
              note "mismatch at %s: (%a) vs (%a)" path pp_entry ea pp_entry eb)
      ia;
    List.iter
      (fun (path, _) -> if not (List.mem_assoc path ia) then note "only in second: %s" path)
      ib;
    let fa = List.map (fun f -> (f.f_fd, f)) a.fds and fb = List.map (fun f -> (f.f_fd, f)) b.fds in
    List.iter
      (fun (fd, f1) ->
        match List.assoc_opt fd fb with
        | None -> note "fd %d only in first" fd
        | Some f2 -> if not (fd_equal f1 f2) then note "fd %d differs (ino %d vs %d)" fd f1.f_ino f2.f_ino)
      fa;
    List.iter (fun (fd, _) -> if not (List.mem_assoc fd fa) then note "fd %d only in second" fd) fb;
    List.rev !diffs
end

let snapshot t =
  let st = t.st in
  let entries = ref [] in
  let reached = Hashtbl.create 64 in
  let rec visit path ino =
    Hashtbl.replace reached ino ();
    let info = get_exn st ino in
    let kind, size, content =
      match info.node with
      | File data -> (Types.Regular, Chunked.length data, Chunked.to_string data)
      | Dir _ -> (Types.Directory, 0, "")
      | Symlink target -> (Types.Symlink, String.length target, target)
    in
    entries :=
      {
        State.e_path = path;
        e_ino = ino;
        e_kind = kind;
        e_size = size;
        e_nlink = info.nlink;
        e_mode = info.mode;
        e_content = content;
      }
      :: !entries;
    match info.node with
    | Dir children ->
        Dmap.iter
          (fun k child ->
            let name = Intern.name k in
            visit (if path = "/" then "/" ^ name else path ^ "/" ^ name) child)
          children
    | File _ | Symlink _ -> ()
  in
  visit "/" Types.root_ino;
  (* Orphans: nlink = 0 nodes kept alive by open descriptors. *)
  Imap.iter
    (fun ino info ->
      if not (Hashtbl.mem reached ino) then begin
        let kind, size, content =
          match info.node with
          | File data -> (Types.Regular, Chunked.length data, Chunked.to_string data)
          | Dir _ -> (Types.Directory, 0, "")
          | Symlink target -> (Types.Symlink, String.length target, target)
        in
        entries :=
          {
            State.e_path = Printf.sprintf "!orphan:%d" ino;
            e_ino = ino;
            e_kind = kind;
            e_size = size;
            e_nlink = info.nlink;
            e_mode = info.mode;
            e_content = content;
          }
          :: !entries
      end)
    st.nodes;
  let entries = List.sort (fun a b -> compare a.State.e_path b.State.e_path) !entries in
  let fds =
    Seq.fold_left
      (fun acc (fd, f) -> { State.f_fd = fd; f_ino = f.fino; f_flags = f.fflags } :: acc)
      []
      (Imap.to_rev_seq st.fds)
  in
  { State.entries; fds; time = st.time }
