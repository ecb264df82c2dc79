(* Fixture for the poly-hash rule: generic table functions and the
   polymorphic hash, in a unit the fixture config puts on the serving
   path. *)

let counts : (int, int) Hashtbl.t = Hashtbl.create 16

let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))

let key_hash (k : int * string) = Hashtbl.hash k

(* Does not fire: a Hashtbl.Make instance over a monomorphic key. *)
module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Rae_util.Tbl.hash_int
end)

let ints : unit Ints.t = Ints.create 16
let add k = Ints.replace ints k ()
