type stats = { hits : int; misses : int; evictions : int; inserts : int }

module Make (T : Rae_util.Tbl.S) = struct
  type 'v node = {
    key : T.key;
    mutable value : 'v;
    mutable pinned : bool;
    mutable prev : 'v node option;  (* towards MRU *)
    mutable next : 'v node option;  (* towards LRU *)
  }

  type 'v t = {
    table : 'v node T.t;
    capacity : int;
    on_evict : (T.key -> 'v -> unit) option;
    mutable mru : 'v node option;
    mutable lru : 'v node option;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable inserts : int;
  }

  let create ?on_evict ~capacity () =
    if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
    {
      table = T.create capacity;
      capacity;
      on_evict;
      mru = None;
      lru = None;
      hits = 0;
      misses = 0;
      evictions = 0;
      inserts = 0;
    }

  let capacity t = t.capacity
  let length t = T.length t.table

  let detach t node =
    (match node.prev with Some p -> p.next <- node.next | None -> t.mru <- node.next);
    (match node.next with Some n -> n.prev <- node.prev | None -> t.lru <- node.prev);
    node.prev <- None;
    node.next <- None

  let push_front t node =
    node.next <- t.mru;
    node.prev <- None;
    (match t.mru with Some m -> m.prev <- Some node | None -> t.lru <- Some node);
    t.mru <- Some node

  let promote t node =
    detach t node;
    push_front t node

  let find t key =
    match T.find_opt t.table key with
    | Some node ->
        t.hits <- t.hits + 1;
        promote t node;
        Some node.value
    | None ->
        t.misses <- t.misses + 1;
        None

  let peek t key = Option.map (fun n -> n.value) (T.find_opt t.table key)
  let mem t key = T.mem t.table key

  let rec evict_from t node_opt =
    match node_opt with
    | None -> () (* everything pinned: allow growth *)
    | Some node ->
        if node.pinned then evict_from t node.prev
        else begin
          detach t node;
          T.remove t.table node.key;
          t.evictions <- t.evictions + 1;
          match t.on_evict with Some f -> f node.key node.value | None -> ()
        end

  let put t key value =
    match T.find_opt t.table key with
    | Some node ->
        node.value <- value;
        promote t node
    | None ->
        t.inserts <- t.inserts + 1;
        if T.length t.table >= t.capacity then evict_from t t.lru;
        let node = { key; value; pinned = false; prev = None; next = None } in
        T.replace t.table key node;
        push_front t node

  let remove t key =
    match T.find_opt t.table key with
    | None -> ()
    | Some node ->
        detach t node;
        T.remove t.table key

  let pin t key = match T.find_opt t.table key with Some n -> n.pinned <- true | None -> ()
  let unpin t key = match T.find_opt t.table key with Some n -> n.pinned <- false | None -> ()

  let pinned t key =
    match T.find_opt t.table key with Some n -> n.pinned | None -> false

  let clear t =
    T.reset t.table;
    t.mru <- None;
    t.lru <- None

  let iter t f = T.iter (fun k node -> f k node.value) t.table

  let fold t ~init ~f = T.fold (fun k node acc -> f acc k node.value) t.table init

  let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions; inserts = t.inserts }
end

(* Shared by every cache exposing this [stats] shape (LRU, 2Q, dentry). *)
let register_stats reg ~prefix get =
  let c name help sample =
    Rae_obs.Metrics.register_counter reg ~help (prefix ^ "_" ^ name) (fun () -> sample (get ()))
  in
  c "hits_total" "cache hits" (fun s -> s.hits);
  c "misses_total" "cache misses" (fun s -> s.misses);
  c "evictions_total" "cache evictions" (fun s -> s.evictions);
  c "inserts_total" "cache inserts" (fun s -> s.inserts)
