open Rae_format
module Types = Rae_vfs.Types

type severity = Error | Warning

type code =
  | Sb_invalid
  | Ibmap_invalid
  | Bbmap_invalid
  | Inode_invalid
  | Root_invalid
  | Dirent_invalid
  | Dot_mismatch
  | Bad_pointer
  | Double_ref
  | Bitmap_leak
  | Bitmap_missing
  | Nlink_mismatch
  | Unreachable_inode
  | Orphan_inode
  | Size_invalid
  | Count_mismatch
  | Io_failure

type finding = { severity : severity; code : code; detail : string }

type report = {
  findings : finding list;
  inodes_checked : int;
  dirs_walked : int;
  blocks_referenced : int;
}

let code_to_string = function
  | Sb_invalid -> "sb-invalid"
  | Ibmap_invalid -> "inode-bitmap-invalid"
  | Bbmap_invalid -> "block-bitmap-invalid"
  | Inode_invalid -> "inode-invalid"
  | Root_invalid -> "root-invalid"
  | Dirent_invalid -> "dirent-invalid"
  | Dot_mismatch -> "dot-entry-mismatch"
  | Bad_pointer -> "bad-block-pointer"
  | Double_ref -> "block-double-referenced"
  | Bitmap_leak -> "block-bitmap-leak"
  | Bitmap_missing -> "block-bitmap-missing"
  | Nlink_mismatch -> "nlink-mismatch"
  | Unreachable_inode -> "unreachable-inode"
  | Orphan_inode -> "orphan-inode"
  | Size_invalid -> "size-invalid"
  | Count_mismatch -> "free-count-mismatch"
  | Io_failure -> "io-failure"

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %s: %s"
    (match f.severity with Error -> "error" | Warning -> "warn")
    (code_to_string f.code) f.detail

let pp_report ppf r =
  Format.fprintf ppf "@[<v>fsck: %d inodes, %d dirs, %d blocks referenced@,"
    r.inodes_checked r.dirs_walked r.blocks_referenced;
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_finding f) r.findings;
  Format.fprintf ppf "%s@]" (if r.findings = [] then "clean" else "")

let clean r = not (List.exists (fun f -> f.severity = Error) r.findings)
let errors r = List.filter (fun f -> f.severity = Error) r.findings

type ctx = {
  mutable findings : finding list;
  mutable inodes_checked : int;
  mutable dirs_walked : int;
  refs : (int, int) Hashtbl.t;  (* phys block -> reference count *)
  link_counts : (int, int) Hashtbl.t;  (* ino -> observed references *)
  visited_dirs : (int, unit) Hashtbl.t;
}

let fresh_ctx () =
  {
    findings = [];
    inodes_checked = 0;
    dirs_walked = 0;
    refs = Hashtbl.create 256;
    link_counts = Hashtbl.create 256;
    visited_dirs = Hashtbl.create 64;
  }

let note ctx severity code fmt =
  Format.kasprintf (fun detail -> ctx.findings <- { severity; code; detail } :: ctx.findings) fmt

let add_ref ctx blk = Hashtbl.replace ctx.refs blk ((try Hashtbl.find ctx.refs blk with Not_found -> 0) + 1)

let bump_link ctx ino =
  Hashtbl.replace ctx.link_counts ino ((try Hashtbl.find ctx.link_counts ino with Not_found -> 0) + 1)

(* Collect all allocated inodes; invalid slots are reported and skipped. *)
let scan_inodes ctx reader =
  let g = Reader.geometry reader in
  let table = Hashtbl.create 256 in
  for ino = 1 to g.Layout.ninodes do
    match Reader.read_inode_opt reader ino with
    | Ok None -> ()
    | Ok (Some inode) ->
        ctx.inodes_checked <- ctx.inodes_checked + 1;
        Hashtbl.replace table ino inode
    | Error e -> note ctx Error Inode_invalid "%s" (Reader.error_to_string e)
  done;
  table

let check_inode_bitmap ctx reader table =
  let g = Reader.geometry reader in
  match Reader.load_inode_bitmap reader with
  | Error e ->
      note ctx Error Ibmap_invalid "%s" (Reader.error_to_string e);
      None
  | Ok bm ->
      for ino = 1 to g.Layout.ninodes do
        let allocated = Hashtbl.mem table ino in
        let marked = Bitmap.test bm ino in
        if allocated && not marked then
          note ctx Error Ibmap_invalid "inode %d in use but marked free" ino
        else if (not allocated) && marked then
          note ctx Error Ibmap_invalid "inode %d marked in use but slot is free or invalid" ino
      done;
      Some bm

(* Walk a directory inode's blocks, validating structure and recording
   references.  Returns the child directories to recurse into. *)
let walk_dir ctx reader table ~ino ~parent inode =
  ctx.dirs_walked <- ctx.dirs_walked + 1;
  let g = Reader.geometry reader in
  if inode.Inode.size mod Layout.block_size <> 0 then
    note ctx Error Size_invalid "directory %d size %d not block-aligned" ino inode.Inode.size;
  let nblocks = Inode.blocks_for_size inode.Inode.size in
  let subdirs = ref [] in
  let seen_dot = ref false and seen_dotdot = ref false in
  let seen_names = Hashtbl.create 16 in
  for idx = 0 to nblocks - 1 do
    match Reader.read_file_block reader inode idx with
    | Error e -> note ctx Error Bad_pointer "dir %d: %s" ino (Reader.error_to_string e)
    | Ok block -> (
        match Dirent.list block with
        | Error e ->
            note ctx Error Dirent_invalid "dir %d block %d: %s" ino idx (Dirent.error_to_string e)
        | Ok entries ->
            List.iter
              (fun { Dirent.ino = child; kind_code; name } ->
                if Hashtbl.mem seen_names name then
                  note ctx Error Dirent_invalid "dir %d: duplicate name %S" ino name
                else Hashtbl.replace seen_names name ();
                if String.equal name "." then begin
                  seen_dot := true;
                  if child <> ino then note ctx Error Dot_mismatch "dir %d: \".\" points to %d" ino child
                end
                else if String.equal name ".." then begin
                  seen_dotdot := true;
                  if child <> parent then
                    note ctx Error Dot_mismatch "dir %d: \"..\" points to %d, parent is %d" ino child parent
                end
                else if child < 1 || child > g.Layout.ninodes then
                  note ctx Error Dirent_invalid "dir %d: entry %S points to invalid inode %d" ino name child
                else
                  match Hashtbl.find_opt table child with
                  | None ->
                      note ctx Error Dirent_invalid "dir %d: entry %S points to free inode %d" ino name child
                  | Some child_inode ->
                      bump_link ctx child;
                      (match Types.kind_of_code kind_code with
                      | Some k when k = child_inode.Inode.kind -> ()
                      | Some k ->
                          note ctx Error Dirent_invalid
                            "dir %d: entry %S kind %s but inode %d is %s" ino name
                            (Types.kind_to_string k) child
                            (Types.kind_to_string child_inode.Inode.kind)
                      | None ->
                          note ctx Error Dirent_invalid "dir %d: entry %S has invalid kind" ino name);
                      if child_inode.Inode.kind = Types.Directory then begin
                        if Hashtbl.mem ctx.visited_dirs child then
                          note ctx Error Double_ref
                            "directory %d referenced from multiple parents (via %d)" child ino
                        else begin
                          Hashtbl.replace ctx.visited_dirs child ();
                          subdirs := (child, ino, child_inode) :: !subdirs
                        end
                      end)
              entries)
  done;
  if not !seen_dot then note ctx Error Dot_mismatch "dir %d: missing \".\"" ino;
  if not !seen_dotdot then note ctx Error Dot_mismatch "dir %d: missing \"..\"" ino;
  !subdirs

(* Walk the tree from the root; returns each visited subdirectory's
   parent, the census the directory nlink check needs. *)
let check_tree ctx reader table =
  let parents = Hashtbl.create 64 in
  (match Hashtbl.find_opt table Types.root_ino with
  | None -> note ctx Error Root_invalid "root inode %d is not allocated" Types.root_ino
  | Some root when root.Inode.kind <> Types.Directory ->
      note ctx Error Root_invalid "root inode is a %s" (Types.kind_to_string root.Inode.kind)
  | Some root ->
      Hashtbl.replace ctx.visited_dirs Types.root_ino ();
      let rec go = function
        | [] -> ()
        | (ino, parent, inode) :: rest ->
            let subdirs = walk_dir ctx reader table ~ino ~parent inode in
            List.iter (fun (child, p, _) -> Hashtbl.replace parents child p) subdirs;
            go (subdirs @ rest)
      in
      go [ (Types.root_ino, Types.root_ino, root) ]);
  parents

let check_blocks ctx reader table =
  Hashtbl.iter
    (fun ino inode ->
      (if inode.Inode.kind = Types.Symlink then
         if inode.Inode.size = 0 || inode.Inode.size > 4095 then
           note ctx Error Size_invalid "symlink %d has size %d" ino inode.Inode.size);
      match
        Reader.iter_file_blocks reader inode ~f:(fun ~idx:_ ~phys ->
            add_ref ctx phys;
            Ok ())
      with
      | Ok () -> ()
      | Error e -> note ctx Error Bad_pointer "inode %d: %s" ino (Reader.error_to_string e))
    table;
  Hashtbl.iter
    (fun blk count ->
      if count > 1 then note ctx Error Double_ref "block %d referenced %d times" blk count)
    ctx.refs

let check_block_bitmap ctx reader =
  match Reader.load_block_bitmap reader with
  | Error e ->
      note ctx Error Bbmap_invalid "%s" (Reader.error_to_string e);
      None
  | Ok bm ->
      let g = Reader.geometry reader in
      for blk = g.Layout.data_start to g.Layout.nblocks - 1 do
        let referenced = Hashtbl.mem ctx.refs blk in
        let marked = Bitmap.test bm blk in
        if referenced && not marked then
          note ctx Error Bitmap_missing "block %d referenced but marked free" blk
        else if (not referenced) && marked then
          note ctx Warning Bitmap_leak "block %d marked allocated but referenced by nothing" blk
      done;
      Some bm

let check_links ctx table =
  Hashtbl.iter
    (fun ino inode ->
      let observed = try Hashtbl.find ctx.link_counts ino with Not_found -> 0 in
      match inode.Inode.kind with
      | Types.Directory ->
          (* Exact directory nlink accounting happens in check_dir_nlinks;
             here only reachability. *)
          if not (Hashtbl.mem ctx.visited_dirs ino) then
            note ctx Error Unreachable_inode "directory %d allocated but unreachable" ino
      | Types.Regular | Types.Symlink ->
          if observed = 0 then begin
            if inode.Inode.nlink = 0 then
              note ctx Warning Orphan_inode "inode %d allocated with nlink 0 (crash leftover)" ino
            else
              note ctx Error Unreachable_inode "inode %d (nlink %d) allocated but unreachable" ino
                inode.Inode.nlink
          end
          else if observed <> inode.Inode.nlink then
            note ctx Error Nlink_mismatch "inode %d has nlink %d but %d references" ino
              inode.Inode.nlink observed)
    table

(* Directory nlink accounting needs the subdir census; do it as a separate
   pass over the visited tree. *)
let check_dir_nlinks ctx table parents =
  Hashtbl.iter
    (fun ino inode ->
      if inode.Inode.kind = Types.Directory && Hashtbl.mem ctx.visited_dirs ino then begin
        let subdirs =
          Hashtbl.fold (fun _child parent acc -> if parent = ino then acc + 1 else acc) parents 0
        in
        let expected = 2 + subdirs in
        if inode.Inode.nlink <> expected then
          note ctx Error Nlink_mismatch "directory %d has nlink %d, expected %d" ino
            inode.Inode.nlink expected
      end)
    table

let check_counts ctx reader ibm bbm =
  let sb = reader.Reader.sb in
  (match ibm with
  | Some bm ->
      let free = Bitmap.count_free bm in
      if free <> sb.Superblock.free_inodes then
        note ctx Error Count_mismatch "superblock free_inodes=%d, bitmap says %d"
          sb.Superblock.free_inodes free
  | None -> ());
  match bbm with
  | Some bm ->
      (* Free data blocks only: metadata blocks are always allocated. *)
      let free = Bitmap.count_free bm in
      if free <> sb.Superblock.free_blocks then
        note ctx Error Count_mismatch "superblock free_blocks=%d, bitmap says %d"
          sb.Superblock.free_blocks free
  | None -> ()

let check read =
  let ctx = fresh_ctx () in
  let finish () =
    {
      findings = List.rev ctx.findings;
      inodes_checked = ctx.inodes_checked;
      dirs_walked = ctx.dirs_walked;
      blocks_referenced = Hashtbl.length ctx.refs;
    }
  in
  match Reader.attach read with
  | exception Rae_block.Device.Io_error msg ->
      note ctx Error Io_failure "device error reading superblock: %s" msg;
      finish ()
  | Error e ->
      note ctx Error Sb_invalid "%s" (Reader.error_to_string e);
      finish ()
  | Ok reader -> (
      try
        let table = scan_inodes ctx reader in
        let ibm = check_inode_bitmap ctx reader table in
        let parents = check_tree ctx reader table in
        check_blocks ctx reader table;
        let bbm = check_block_bitmap ctx reader in
        check_links ctx table;
        check_dir_nlinks ctx table parents;
        check_counts ctx reader ibm bbm;
        finish ()
      with
      | Rae_util.Codec.Decode_error msg ->
          note ctx Error Io_failure "decode error during check: %s" msg;
          finish ()
      | Rae_block.Device.Io_error msg ->
          note ctx Error Io_failure "device error during check: %s" msg;
          finish ())

let check_device dev =
  let ro = Rae_block.Device.read_only dev in
  check (fun blk -> Rae_block.Device.read ro blk)
