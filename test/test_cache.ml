(* Tests for rae_cache: LRU, 2Q, dentry cache. *)

module L = Rae_cache.Lru.Make (Rae_util.Tbl.Int)
module Q = Rae_cache.Two_q.Make (Rae_util.Tbl.Int)
module Dentry = Rae_cache.Dentry
module Types = Rae_vfs.Types

(* ---- LRU ---- *)

let test_lru_hit_miss () =
  let c = L.create ~capacity:2 () in
  Alcotest.(check (option string)) "miss" None (L.find c 1);
  L.put c 1 "one";
  Alcotest.(check (option string)) "hit" (Some "one") (L.find c 1);
  let s = L.stats c in
  Alcotest.(check (pair int int)) "stats" (1, 1) (s.Rae_cache.Lru.hits, s.Rae_cache.Lru.misses)

let test_lru_eviction_order () =
  let evicted = ref [] in
  let c = L.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 () in
  L.put c 1 "a";
  L.put c 2 "b";
  ignore (L.find c 1) (* promote 1 *);
  L.put c 3 "c" (* evicts 2, the LRU *);
  Alcotest.(check (list int)) "evicted LRU" [ 2 ] !evicted;
  Alcotest.(check bool) "1 kept" true (L.mem c 1);
  Alcotest.(check bool) "3 present" true (L.mem c 3)

let test_lru_peek_no_promote () =
  let c = L.create ~capacity:2 () in
  L.put c 1 "a";
  L.put c 2 "b";
  ignore (L.peek c 1) (* does not promote *);
  L.put c 3 "c";
  Alcotest.(check bool) "1 evicted despite peek" false (L.mem c 1)

let test_lru_pinning () =
  let evicted = ref [] in
  let c = L.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 () in
  L.put c 1 "a";
  L.pin c 1;
  L.put c 2 "b";
  L.put c 3 "c" (* must evict 2, not pinned 1 *);
  Alcotest.(check bool) "pinned survives" true (L.mem c 1);
  Alcotest.(check (list int)) "evicted unpinned" [ 2 ] !evicted;
  L.unpin c 1;
  L.put c 4 "d";
  Alcotest.(check bool) "unpinned now evictable" false (L.mem c 1)

let test_lru_all_pinned_grows () =
  let c = L.create ~capacity:2 () in
  L.put c 1 "a";
  L.put c 2 "b";
  L.pin c 1;
  L.pin c 2;
  L.put c 3 "c";
  Alcotest.(check int) "grows past capacity" 3 (L.length c)

let test_lru_replace_updates () =
  let c = L.create ~capacity:2 () in
  L.put c 1 "a";
  L.put c 1 "a2";
  Alcotest.(check (option string)) "replaced" (Some "a2") (L.find c 1);
  Alcotest.(check int) "no duplicate" 1 (L.length c)

let test_lru_remove_clear () =
  let c = L.create ~capacity:4 () in
  L.put c 1 "a";
  L.put c 2 "b";
  L.remove c 1;
  Alcotest.(check bool) "removed" false (L.mem c 1);
  L.clear c;
  Alcotest.(check int) "cleared" 0 (L.length c);
  (* After clear the recency list must be coherent: inserts still work. *)
  L.put c 3 "c";
  Alcotest.(check (option string)) "usable after clear" (Some "c") (L.find c 3)

let prop_lru_capacity_respected =
  QCheck2.Test.make ~name:"lru never exceeds capacity (unpinned)" ~count:200
    QCheck2.Gen.(list_size (int_bound 100) (int_bound 20))
    (fun keys ->
      let c = L.create ~capacity:5 () in
      List.iter (fun k -> L.put c k (string_of_int k)) keys;
      L.length c <= 5)

let prop_lru_contains_recent =
  QCheck2.Test.make ~name:"lru keeps the most recent insert" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (int_bound 20))
    (fun keys ->
      let c = L.create ~capacity:3 () in
      List.iter (fun k -> L.put c k "v") keys;
      L.mem c (List.nth keys (List.length keys - 1)))

(* ---- 2Q ---- *)

let test_twoq_basic () =
  let c = Q.create ~capacity:4 () in
  Q.put c 1 "a";
  Alcotest.(check (option string)) "hit" (Some "a") (Q.find c 1);
  Alcotest.(check (option string)) "miss" None (Q.find c 2)

let test_twoq_ghost_promotion () =
  let c = Q.create ~capacity:4 ~kin_ratio:0.5 ~kout_ratio:1.0 () in
  (* Fill A1in and push 1 out into the ghost queue. *)
  Q.put c 1 "a";
  Q.put c 2 "b";
  Q.put c 3 "c";
  Q.put c 4 "d";
  Q.put c 5 "e";
  Q.put c 6 "f";
  Alcotest.(check bool) "ghosts exist" true (Q.ghost_length c > 0);
  Alcotest.(check bool) "1 evicted" false (Q.mem c 1);
  (* Re-admitting a ghosted key goes to Am (hot). *)
  Q.put c 1 "a'";
  Alcotest.(check (option string)) "readmitted" (Some "a'") (Q.find c 1)

let test_twoq_scan_resistance () =
  (* A hot working set re-admitted via ghosts survives a long scan better
     than it would under plain LRU semantics: after the scan, hot keys
     readmitted from ghosts sit in Am while scan pages wash through A1in. *)
  let c = Q.create ~capacity:8 ~kin_ratio:0.25 ~kout_ratio:2.0 () in
  let hot = [ 1; 2 ] in
  (* Establish the hot set in Am via ghost promotion. *)
  List.iter (fun k -> Q.put c k "hot") hot;
  for i = 100 to 120 do Q.put c i "wash" done;
  List.iter (fun k -> Q.put c k "hot") hot (* from ghosts -> Am *);
  (* Long scan of cold keys. *)
  for i = 200 to 260 do Q.put c i "scan" done;
  List.iter
    (fun k -> Alcotest.(check bool) (Printf.sprintf "hot %d survives scan" k) true (Q.mem c k))
    hot

let test_twoq_pinning () =
  let c = Q.create ~capacity:2 ~kin_ratio:1.0 () in
  Q.put c 1 "a";
  Q.pin c 1;
  for i = 2 to 10 do Q.put c i "x" done;
  Alcotest.(check bool) "pinned survives" true (Q.mem c 1);
  Q.unpin c 1

let test_twoq_remove_clear () =
  let c = Q.create ~capacity:4 () in
  Q.put c 1 "a";
  Q.put c 2 "b";
  Q.remove c 1;
  Alcotest.(check bool) "removed" false (Q.mem c 1);
  Q.clear c;
  Alcotest.(check int) "cleared" 0 (Q.length c);
  Alcotest.(check int) "ghosts cleared" 0 (Q.ghost_length c)

let prop_twoq_capacity =
  QCheck2.Test.make ~name:"2q stays within capacity (unpinned)" ~count:200
    QCheck2.Gen.(list_size (int_bound 200) (int_bound 40))
    (fun keys ->
      let c = Q.create ~capacity:8 () in
      List.iter (fun k -> Q.put c k "v") keys;
      Q.length c <= 8)

let prop_twoq_find_after_put =
  QCheck2.Test.make ~name:"2q: last put always findable" ~count:200
    QCheck2.Gen.(list_size (int_range 1 100) (int_bound 30))
    (fun keys ->
      let c = Q.create ~capacity:6 () in
      List.iter (fun k -> Q.put c k (string_of_int k)) keys;
      let last = List.nth keys (List.length keys - 1) in
      Q.peek c last = Some (string_of_int last))

(* ---- 2Q against its list-based predecessor ----

   The list version below is the reference: Am as an MRU-first list
   rebuilt on every hit, and the resident A1in count recomputed by a walk
   of the whole table on every insert at capacity.  The O(1) version must
   agree with it on every answer, eviction and counter.  (The list version
   walked the queue instead, and so counted twice a key removed and
   re-admitted while still queued; nothing removes from the block cache,
   and without [remove] the two counts are equal.) *)
module Ref_two_q = struct
  module Make (K : Hashtbl.HashedType) = struct
    module H = Hashtbl.Make (K)

    type 'v entry = { mutable value : 'v; mutable pinned : bool; where : [ `A1in | `Am ] }

    type 'v t = {
      table : 'v entry H.t;
      a1in : K.t Queue.t;  (* FIFO of probation keys *)
      mutable am : K.t list;  (* MRU-first LRU list of hot keys; small-n list ops *)
      ghosts : unit H.t;  (* A1out key set *)
      ghost_fifo : K.t Queue.t;
      capacity : int;
      kin : int;
      kout : int;
      on_evict : (K.t -> 'v -> unit) option;
      mutable hits : int;
      mutable misses : int;
      mutable evictions : int;
      mutable inserts : int;
    }

    let create ?on_evict ?(kin_ratio = 0.25) ?(kout_ratio = 0.5) ~capacity () =
      if capacity <= 0 then invalid_arg "Two_q.create: capacity must be positive";
      {
        table = H.create (2 * capacity);
        a1in = Queue.create ();
        am = [];
        ghosts = H.create capacity;
        ghost_fifo = Queue.create ();
        capacity;
        kin = max 1 (int_of_float (float_of_int capacity *. kin_ratio));
        kout = max 1 (int_of_float (float_of_int capacity *. kout_ratio));
        on_evict;
        hits = 0;
        misses = 0;
        evictions = 0;
        inserts = 0;
      }

    let length t = H.length t.table
    let ghost_length t = H.length t.ghosts

    let am_touch t key = t.am <- key :: List.filter (fun k -> not (K.equal k key)) t.am
    let am_remove t key = t.am <- List.filter (fun k -> not (K.equal k key)) t.am

    let ghost_add t key =
      if not (H.mem t.ghosts key) then begin
        H.replace t.ghosts key ();
        Queue.add key t.ghost_fifo;
        while H.length t.ghosts > t.kout do
          let victim = Queue.pop t.ghost_fifo in
          H.remove t.ghosts victim
        done
      end

    let evict_entry t key entry =
      H.remove t.table key;
      t.evictions <- t.evictions + 1;
      match t.on_evict with Some f -> f key entry.value | None -> ()

    (* Pop the first unpinned key of the A1in FIFO; requeue pinned ones. *)
    let pop_a1in_victim t =
      let n = Queue.length t.a1in in
      let rec go tried =
        if tried >= n then None
        else
          let key = Queue.pop t.a1in in
          match H.find_opt t.table key with
          | Some e when e.where = `A1in && not e.pinned -> Some (key, e)
          | Some e when e.where = `A1in ->
              Queue.add key t.a1in;
              go (tried + 1)
          | Some _ | None -> go tried (* stale queue residue: key moved or gone *)
      in
      go 0

    let pop_am_victim t =
      let rec go rev_keep = function
        | [] -> None
        | key :: rest -> (
            match H.find_opt t.table key with
            | Some e when not e.pinned ->
                t.am <- List.rev_append rev_keep rest;
                Some (key, e)
            | Some _ -> go (key :: rev_keep) rest
            | None -> go rev_keep rest)
      in
      (* LRU victim is at the tail: walk the reversed list. *)
      match go [] (List.rev t.am) with
      | None -> None
      | Some (key, e) ->
          t.am <- List.rev t.am;
          (* go already produced keep-list in tail order; restore MRU-first *)
          Some (key, e)

    let reclaim t =
      if H.length t.table >= t.capacity then begin
        (* 2Q reclaim: prefer evicting from A1in once it exceeds Kin; ghost
           the victim.  Otherwise evict the LRU of Am (no ghost). *)
        let a1in_size = H.fold (fun _ e acc -> if e.where = `A1in then acc + 1 else acc) t.table 0 in
        if a1in_size > t.kin then begin
          match pop_a1in_victim t with
          | Some (key, e) ->
              evict_entry t key e;
              ghost_add t key
          | None -> (
              match pop_am_victim t with
              | Some (key, e) -> evict_entry t key e
              | None -> ())
        end
        else
          match pop_am_victim t with
          | Some (key, e) -> evict_entry t key e
          | None -> (
              match pop_a1in_victim t with
              | Some (key, e) ->
                  evict_entry t key e;
                  ghost_add t key
              | None -> ())
      end

    let find t key =
      match H.find_opt t.table key with
      | Some e ->
          t.hits <- t.hits + 1;
          (* A hit in Am refreshes recency; a hit in A1in does NOT promote
             (classic 2Q: promotion happens only via the ghost queue). *)
          if e.where = `Am then am_touch t key;
          Some e.value
      | None ->
          t.misses <- t.misses + 1;
          None

    let peek t key = Option.map (fun e -> e.value) (H.find_opt t.table key)
    let mem t key = H.mem t.table key

    let put t key value =
      match H.find_opt t.table key with
      | Some e ->
          e.value <- value;
          if e.where = `Am then am_touch t key
      | None ->
          t.inserts <- t.inserts + 1;
          reclaim t;
          if H.mem t.ghosts key then begin
            (* Re-reference of a ghosted page: admit straight into Am. *)
            H.remove t.ghosts key;
            H.replace t.table key { value; pinned = false; where = `Am };
            am_touch t key
          end
          else begin
            H.replace t.table key { value; pinned = false; where = `A1in };
            Queue.add key t.a1in
          end

    let remove t key =
      match H.find_opt t.table key with
      | None -> ()
      | Some e ->
          H.remove t.table key;
          if e.where = `Am then am_remove t key

    let pin t key = match H.find_opt t.table key with Some e -> e.pinned <- true | None -> ()
    let unpin t key = match H.find_opt t.table key with Some e -> e.pinned <- false | None -> ()

    let clear t =
      H.reset t.table;
      Queue.clear t.a1in;
      t.am <- [];
      H.reset t.ghosts;
      Queue.clear t.ghost_fifo

    let stats t =
      {
        Rae_cache.Lru.hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        inserts = t.inserts;
      }
  end
end

module RQ = Ref_two_q.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type cache_op =
  | Put of int
  | Find of int
  | Peek of int
  | Pin of int
  | Unpin of int
  | Remove of int
  | Clear

let cache_op_to_string = function
  | Put k -> Printf.sprintf "put %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Pin k -> Printf.sprintf "pin %d" k
  | Unpin k -> Printf.sprintf "unpin %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

let prop_twoq_matches_list_version =
  let open QCheck2.Gen in
  let key = int_bound 7 in
  let op =
    frequency
      [
        (10, map (fun k -> Put k) key);
        (6, map (fun k -> Find k) key);
        (2, map (fun k -> Peek k) key);
        (2, map (fun k -> Pin k) key);
        (2, map (fun k -> Unpin k) key);
        (2, map (fun k -> Remove k) key);
        (1, pure Clear);
      ]
  in
  let gen =
    tup4 (int_range 1 6) (oneofl [ 0.25; 0.5; 1.0 ]) (oneofl [ 0.5; 1.0; 2.0 ])
      (list_size (int_bound 200) op)
  in
  let print (cap, kin, kout, ops) =
    Printf.sprintf "capacity %d, kin %.2f, kout %.2f: %s" cap kin kout
      (String.concat "; " (List.map cache_op_to_string ops))
  in
  QCheck2.Test.make ~name:"2q = list-based 2q (answers, evictions, stats)" ~count:500 ~print gen
    (fun (capacity, kin_ratio, kout_ratio, ops) ->
      let ev_new = ref [] and ev_ref = ref [] in
      let log ev k v = ev := (k, v) :: !ev in
      let q = Q.create ~on_evict:(log ev_new) ~kin_ratio ~kout_ratio ~capacity () in
      let r = RQ.create ~on_evict:(log ev_ref) ~kin_ratio ~kout_ratio ~capacity () in
      let answer f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      List.iteri
        (fun i op ->
          let run_q, run_r =
            match op with
            | Put k -> ((fun () -> Q.put q k i; None), fun () -> RQ.put r k i; None)
            | Find k -> ((fun () -> Q.find q k), fun () -> RQ.find r k)
            | Peek k -> ((fun () -> Q.peek q k), fun () -> RQ.peek r k)
            | Pin k -> ((fun () -> Q.pin q k; None), fun () -> RQ.pin r k; None)
            | Unpin k -> ((fun () -> Q.unpin q k; None), fun () -> RQ.unpin r k; None)
            | Remove k -> ((fun () -> Q.remove q k; None), fun () -> RQ.remove r k; None)
            | Clear -> ((fun () -> Q.clear q; None), fun () -> RQ.clear r; None)
          in
          let got = answer run_q and want = answer run_r in
          let fail what =
            QCheck2.Test.fail_reportf "op %d (%s): %s differ" i (cache_op_to_string op) what
          in
          if got <> want then fail "answers";
          if !ev_new <> !ev_ref then fail "evictions";
          if Q.stats q <> RQ.stats r then fail "stats";
          if (Q.length q, Q.ghost_length q) <> (RQ.length r, RQ.ghost_length r) then fail "sizes";
          if List.exists (fun k -> Q.mem q k <> RQ.mem r k) (List.init 8 Fun.id) then
            fail "residents")
        ops;
      true)

(* ---- Dentry ---- *)

let test_dentry_positive_negative () =
  let d = Dentry.create ~capacity:16 in
  Dentry.add d ~dir:1 ~name:"a" (Dentry.Present { ino = 5; kind = Types.Regular });
  Dentry.add d ~dir:1 ~name:"gone" Dentry.Absent;
  (match Dentry.find d ~dir:1 ~name:"a" with
  | Some (Dentry.Present { ino; _ }) -> Alcotest.(check int) "positive" 5 ino
  | _ -> Alcotest.fail "expected positive entry");
  (match Dentry.find d ~dir:1 ~name:"gone" with
  | Some Dentry.Absent -> ()
  | _ -> Alcotest.fail "expected negative entry");
  Alcotest.(check bool) "unknown is None" true (Dentry.find d ~dir:1 ~name:"other" = None)

let test_dentry_scoped_by_dir () =
  let d = Dentry.create ~capacity:16 in
  Dentry.add d ~dir:1 ~name:"x" (Dentry.Present { ino = 5; kind = Types.Regular });
  Alcotest.(check bool) "same name other dir missing" true (Dentry.find d ~dir:2 ~name:"x" = None)

let test_dentry_invalidate () =
  let d = Dentry.create ~capacity:16 in
  Dentry.add d ~dir:1 ~name:"x" (Dentry.Present { ino = 5; kind = Types.Regular });
  Dentry.add d ~dir:1 ~name:"y" (Dentry.Present { ino = 6; kind = Types.Regular });
  Dentry.add d ~dir:2 ~name:"z" (Dentry.Present { ino = 7; kind = Types.Regular });
  Dentry.invalidate d ~dir:1 ~name:"x";
  Alcotest.(check bool) "x dropped" true (Dentry.find d ~dir:1 ~name:"x" = None);
  Alcotest.(check bool) "y kept" true (Dentry.find d ~dir:1 ~name:"y" <> None);
  Dentry.invalidate_dir d ~dir:1;
  Alcotest.(check bool) "y dropped with dir" true (Dentry.find d ~dir:1 ~name:"y" = None);
  Alcotest.(check bool) "other dir kept" true (Dentry.find d ~dir:2 ~name:"z" <> None);
  Dentry.clear d;
  Alcotest.(check int) "cleared" 0 (Dentry.length d)

(* The dcache as it was before entries were indexed by directory, kept as
   the reference: [invalidate_dir] folds the whole LRU for the
   directory's keys. *)
module Ref_dentry = struct
  module L = Rae_cache.Lru.Make (Hashtbl.Make (struct
    type t = int * string

    let equal (d1, n1) (d2, n2) = d1 = d2 && String.equal n1 n2
    let hash = Hashtbl.hash
  end))

  let create ~capacity = L.create ~capacity ()
  let find t ~dir ~name = L.find t (dir, name)
  let add t ~dir ~name result = L.put t (dir, name) result
  let invalidate t ~dir ~name = L.remove t (dir, name)

  let invalidate_dir t ~dir =
    let victims =
      L.fold t ~init:[] ~f:(fun acc (d, n) _ -> if d = dir then (d, n) :: acc else acc)
    in
    List.iter (L.remove t) victims

  let clear = L.clear
  let length = L.length
  let stats = L.stats
end

type dentry_op =
  | D_add of int * string * bool
  | D_find of int * string
  | D_invalidate of int * string
  | D_invalidate_dir of int
  | D_clear

(* Random add/find/invalidate/invalidate_dir/clear sequences over a small
   key space and a small capacity, so evictions are frequent: every find
   answers alike, and the two agree on length and on every stat
   (evictions included) after every step and after a final probe of
   every key. *)
let prop_dentry_matches_fold_reference =
  let dirs = 6 and names = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |] in
  let gen =
    QCheck2.Gen.(
      let key = pair (int_range 1 dirs) (oneofa names) in
      let op =
        frequency
          [
            (6, map2 (fun (d, n) pos -> D_add (d, n, pos)) key bool);
            (4, map (fun (d, n) -> D_find (d, n)) key);
            (2, map (fun (d, n) -> D_invalidate (d, n)) key);
            (2, map (fun d -> D_invalidate_dir d) (int_range 1 dirs));
            (1, return D_clear);
          ]
      in
      pair (int_range 1 12) (list_size (int_bound 200) op))
  in
  QCheck2.Test.make ~name:"dcache invalidate_dir = whole-cache fold" ~count:500 gen
    (fun (capacity, ops) ->
      let d = Dentry.create ~capacity and r = Ref_dentry.create ~capacity in
      let agree () = Dentry.length d = Ref_dentry.length r && Dentry.stats d = Ref_dentry.stats r in
      let step = function
        | D_add (dir, name, pos) ->
            let v =
              if pos then Dentry.Present { ino = (dir * 100) + Char.code name.[0]; kind = Types.Regular }
              else Dentry.Absent
            in
            Dentry.add d ~dir ~name v;
            Ref_dentry.add r ~dir ~name v;
            true
        | D_find (dir, name) -> Dentry.find d ~dir ~name = Ref_dentry.find r ~dir ~name
        | D_invalidate (dir, name) ->
            Dentry.invalidate d ~dir ~name;
            Ref_dentry.invalidate r ~dir ~name;
            true
        | D_invalidate_dir dir ->
            Dentry.invalidate_dir d ~dir;
            Ref_dentry.invalidate_dir r ~dir;
            true
        | D_clear ->
            Dentry.clear d;
            Ref_dentry.clear r;
            true
      in
      List.for_all (fun op -> step op && agree ()) ops
      && List.for_all
           (fun dir ->
             Array.for_all (fun name -> step (D_find (dir, name)) && agree ()) names)
           (List.init dirs (fun i -> i + 1)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_cache"
    [
      ( "lru",
        [
          Alcotest.test_case "hit/miss" `Quick test_lru_hit_miss;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "peek no promote" `Quick test_lru_peek_no_promote;
          Alcotest.test_case "pinning" `Quick test_lru_pinning;
          Alcotest.test_case "all pinned grows" `Quick test_lru_all_pinned_grows;
          Alcotest.test_case "replace" `Quick test_lru_replace_updates;
          Alcotest.test_case "remove/clear" `Quick test_lru_remove_clear;
          q prop_lru_capacity_respected;
          q prop_lru_contains_recent;
        ] );
      ( "two_q",
        [
          Alcotest.test_case "basic" `Quick test_twoq_basic;
          Alcotest.test_case "ghost promotion" `Quick test_twoq_ghost_promotion;
          Alcotest.test_case "scan resistance" `Quick test_twoq_scan_resistance;
          Alcotest.test_case "pinning" `Quick test_twoq_pinning;
          Alcotest.test_case "remove/clear" `Quick test_twoq_remove_clear;
          q prop_twoq_capacity;
          q prop_twoq_find_after_put;
          q prop_twoq_matches_list_version;
        ] );
      ( "dentry",
        [
          Alcotest.test_case "positive/negative" `Quick test_dentry_positive_negative;
          Alcotest.test_case "scoped by dir" `Quick test_dentry_scoped_by_dir;
          Alcotest.test_case "invalidation" `Quick test_dentry_invalidate;
          q prop_dentry_matches_fold_reference;
        ] );
    ]
