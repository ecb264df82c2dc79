(* domain-safety fixture: a toplevel int table written, unguarded, by a
   definition the fixture config declares as a parallel-region root. *)

let seen : int Rae_util.Tbl.Int.t = Rae_util.Tbl.Int.create 16

let fold_entry items = List.iter (fun i -> Rae_util.Tbl.Int.replace seen i i) items
