type result = Present of { ino : Rae_vfs.Types.ino; kind : Rae_vfs.Types.kind } | Absent

module Tbl = Rae_util.Tbl

module Key = struct
  type t = int * string

  let equal (d1, n1) (d2, n2) = Int.equal d1 d2 && String.equal n1 n2
  let hash (d, n) = Tbl.hash_int (d lxor Tbl.hash_string n)
end

module L = Lru.Make (Hashtbl.Make (Key))

(* [by_dir] indexes the cached names of each directory, so dropping one
   directory's entries touches only those entries instead of folding the
   whole cache.  It holds exactly the LRU's keys: [add] inserts, and
   every way a key leaves the LRU — eviction (the [on_evict] hook),
   [invalidate], [invalidate_dir] and [clear] — removes it here too. *)
type t = { lru : result L.t; by_dir : unit Tbl.Str.t Tbl.Int.t }

let forget by_dir (dir, name) =
  match Tbl.Int.find_opt by_dir dir with
  | None -> ()
  | Some names ->
      Tbl.Str.remove names name;
      if Tbl.Str.length names = 0 then Tbl.Int.remove by_dir dir

let create ~capacity =
  let by_dir = Tbl.Int.create 64 in
  { lru = L.create ~on_evict:(fun key _ -> forget by_dir key) ~capacity (); by_dir }

let find t ~dir ~name = L.find t.lru (dir, name)

let add t ~dir ~name result =
  L.put t.lru (dir, name) result;
  match Tbl.Int.find_opt t.by_dir dir with
  | Some names -> Tbl.Str.replace names name ()
  | None ->
      let names = Tbl.Str.create 8 in
      Tbl.Str.replace names name ();
      Tbl.Int.replace t.by_dir dir names

let invalidate t ~dir ~name =
  L.remove t.lru (dir, name);
  forget t.by_dir (dir, name)

let invalidate_dir t ~dir =
  match Tbl.Int.find_opt t.by_dir dir with
  | None -> ()
  | Some names ->
      Tbl.Int.remove t.by_dir dir;
      Tbl.Str.iter (fun name () -> L.remove t.lru (dir, name)) names

let clear t =
  L.clear t.lru;
  Tbl.Int.reset t.by_dir

let length t = L.length t.lru
let stats t = L.stats t.lru
