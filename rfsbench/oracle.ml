(* The output oracle: the spec filesystem predicts every reply.

   Outcomes are compared up to renaming of descriptor and inode numbers
   (the daemon's sessions hand out virtual fds and interleave inode
   allocation) and ignoring timestamps (logical clocks tick per executed
   op, which interleaving also changes).  The sessions work on disjoint
   subtrees, or only read shared files, so one spec fed in send order
   predicts every session's outcomes exactly. *)

open Rae_vfs
module Spec = Rae_specfs.Spec

let norm (o : Op.outcome) : Op.outcome =
  match o with
  | Ok (Op.Fd _) -> Ok (Op.Fd 0)
  | Ok (Op.Ino _) -> Ok (Op.Ino 0)
  | Ok (Op.St st) -> Ok (Op.St { st with Types.st_ino = 0; st_mtime = 0L; st_ctime = 0L })
  | o -> o

type t = { spec : Spec.t; slots : int array array (* per session *) }

let create ~sessions = { spec = Spec.make (); slots = Array.init sessions (fun _ -> Array.make Gen.nslots (-1)) }

(* The spec's outcome for [g] sent on [session], binding the spec's own
   descriptor slots the way the client binds the daemon's. *)
let predict t ~session (g : Gen.gop) =
  let slots = t.slots.(session) in
  let out = Spec.exec t.spec (Gen.subst slots g.Gen.op) in
  (match out with Ok (Op.Fd fd) when g.Gen.bind >= 0 -> slots.(g.Gen.bind) <- fd | _ -> ());
  out

let describe ~(op : Op.t) ~expect ~actual =
  Format.asprintf "%a: expected %a, got %a" Op.pp op Op.pp_outcome expect Op.pp_outcome actual

(* ---- final-tree comparison ----

   Walks a filesystem through its op interface and lists every entry as
   (path, kind/size/nlink/mode, content digest), inode numbers and
   timestamps left out.  Two trees are equal iff their listings are. *)

let tree exec =
  let read path size =
    match exec (Op.Open (path, Types.flags_ro)) with
    | Ok (Op.Fd fd) ->
        let data = match exec (Op.Pread (fd, 0, size)) with Ok (Op.Data d) -> d | _ -> "<unreadable>" in
        ignore (exec (Op.Close fd));
        data
    | _ -> "<unopenable>"
  in
  let rec walk path acc =
    match exec (Op.Readdir path) with
    | Ok (Op.Names names) ->
        List.fold_left
          (fun acc name ->
            let child = Path.append path name in
            let key = Path.to_string child in
            match exec (Op.Readlink child) with
            | Ok (Op.Data target) -> (key, "symlink -> " ^ target) :: acc
            | _ -> (
                match exec (Op.Stat child) with
                | Ok (Op.St st) ->
                    let attrs =
                      Printf.sprintf "%s size=%d nlink=%d mode=%o" (Types.kind_to_string st.Types.st_kind)
                        st.Types.st_size st.Types.st_nlink st.Types.st_mode
                    in
                    if st.Types.st_kind = Types.Directory then walk child ((key, attrs) :: acc)
                    else
                      let data = read child st.Types.st_size in
                      (key, Printf.sprintf "%s data=%d:%x" attrs (String.length data) (Hashtbl.hash data))
                      :: acc
                | Ok _ -> (key, "<bad stat>") :: acc
                | Error e -> (key, "stat error " ^ Errno.to_string e) :: acc))
          acc names
    | _ -> (Path.to_string path, "<unreadable dir>") :: acc
  in
  List.rev (walk [] [])

(* [None] when equal, else the first differing entry. *)
let tree_diff expected actual =
  let rec go = function
    | [], [] -> None
    | (p, d) :: _, [] -> Some (Printf.sprintf "missing %s (%s)" p d)
    | [], (p, d) :: _ -> Some (Printf.sprintf "unexpected %s (%s)" p d)
    | (p1, d1) :: r1, (p2, d2) :: r2 ->
        if p1 = p2 && d1 = d2 then go (r1, r2)
        else Some (Printf.sprintf "%s (%s) vs %s (%s)" p1 d1 p2 d2)
  in
  go (expected, actual)
