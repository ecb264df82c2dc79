module Make (T : Rae_util.Tbl.S) = struct
  (* Am is an intrusive doubly-linked list through its entries, as in
     {!Lru}; A1in entries keep [prev]/[next] at [None]. *)
  type 'v entry = {
    key : T.key;
    mutable value : 'v;
    mutable pinned : bool;
    where : [ `A1in | `Am ];
    mutable prev : 'v entry option;  (* towards MRU *)
    mutable next : 'v entry option;  (* towards LRU *)
  }

  type 'v t = {
    table : 'v entry T.t;
    a1in : T.key Queue.t;  (* FIFO of probation keys; may hold stale keys *)
    mutable a1in_live : int;  (* resident A1in entries *)
    mutable mru : 'v entry option;  (* Am, most recent first *)
    mutable lru : 'v entry option;
    ghosts : unit T.t;  (* A1out key set *)
    ghost_fifo : T.key Queue.t;
    capacity : int;
    kin : int;
    kout : int;
    on_evict : (T.key -> 'v -> unit) option;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable inserts : int;
  }

  let create ?on_evict ?(kin_ratio = 0.25) ?(kout_ratio = 0.5) ~capacity () =
    if capacity <= 0 then invalid_arg "Two_q.create: capacity must be positive";
    {
      table = T.create capacity;
      a1in = Queue.create ();
      a1in_live = 0;
      mru = None;
      lru = None;
      ghosts = T.create capacity;
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

  let length t = T.length t.table
  let ghost_length t = T.length t.ghosts
  let entry key value where = { key; value; pinned = false; where; prev = None; next = None }

  (* ---- Am: O(1) recency list ---- *)

  let am_detach t e =
    (match e.prev with Some p -> p.next <- e.next | None -> t.mru <- e.next);
    (match e.next with Some n -> n.prev <- e.prev | None -> t.lru <- e.prev);
    e.prev <- None;
    e.next <- None

  let am_push_front t e =
    let se = Some e in
    e.next <- t.mru;
    (match t.mru with Some m -> m.prev <- se | None -> t.lru <- se);
    t.mru <- se

  let am_touch t e =
    am_detach t e;
    am_push_front t e

  (* Take [e] out of its queue's bookkeeping and the table.  An A1in
     key stays in the FIFO until popped; the pop skips it. *)
  let unlink t e =
    (match e.where with `Am -> am_detach t e | `A1in -> t.a1in_live <- t.a1in_live - 1);
    T.remove t.table e.key

  let ghost_add t key =
    if not (T.mem t.ghosts key) then begin
      T.replace t.ghosts key ();
      Queue.add key t.ghost_fifo;
      while T.length t.ghosts > t.kout do
        let victim = Queue.pop t.ghost_fifo in
        T.remove t.ghosts victim
      done
    end

  let evict t e =
    unlink t e;
    t.evictions <- t.evictions + 1;
    match t.on_evict with Some f -> f e.key e.value | None -> ()

  (* Pop the first unpinned key of the A1in FIFO; requeue pinned ones. *)
  let pop_a1in_victim t =
    let n = Queue.length t.a1in in
    let rec go tried =
      if tried >= n then None
      else
        let key = Queue.pop t.a1in in
        match T.find_opt t.table key with
        | Some e when e.where = `A1in && not e.pinned -> Some e
        | Some e when e.where = `A1in ->
            Queue.add key t.a1in;
            go (tried + 1)
        | Some _ | None -> go tried (* stale queue residue: key moved or gone *)
    in
    go 0

  (* The least recent unpinned Am entry. *)
  let pop_am_victim t =
    let rec go = function None -> None | Some e -> if e.pinned then go e.prev else Some e in
    go t.lru

  let reclaim t =
    if T.length t.table >= t.capacity then begin
      (* 2Q reclaim: prefer evicting from A1in once it exceeds Kin; ghost
         the victim.  Otherwise evict the LRU of Am (no ghost). *)
      let evict_a1in e =
        evict t e;
        ghost_add t e.key
      in
      if t.a1in_live > t.kin then begin
        match pop_a1in_victim t with
        | Some e -> evict_a1in e
        | None -> ( match pop_am_victim t with Some e -> evict t e | None -> ())
      end
      else
        match pop_am_victim t with
        | Some e -> evict t e
        | None -> ( match pop_a1in_victim t with Some e -> evict_a1in e | None -> ())
    end

  let find t key =
    match T.find_opt t.table key with
    | Some e ->
        t.hits <- t.hits + 1;
        (* A hit in Am refreshes recency; a hit in A1in does NOT promote
           (classic 2Q: promotion happens only via the ghost queue). *)
        if e.where = `Am then am_touch t e;
        Some e.value
    | None ->
        t.misses <- t.misses + 1;
        None

  let peek t key = Option.map (fun e -> e.value) (T.find_opt t.table key)
  let mem t key = T.mem t.table key

  let put t key value =
    match T.find_opt t.table key with
    | Some e ->
        e.value <- value;
        if e.where = `Am then am_touch t e
    | None ->
        t.inserts <- t.inserts + 1;
        reclaim t;
        if T.mem t.ghosts key then begin
          (* Re-reference of a ghosted page: admit straight into Am. *)
          T.remove t.ghosts key;
          let e = entry key value `Am in
          T.replace t.table key e;
          am_push_front t e
        end
        else begin
          T.replace t.table key (entry key value `A1in);
          Queue.add key t.a1in;
          t.a1in_live <- t.a1in_live + 1
        end

  let remove t key = match T.find_opt t.table key with None -> () | Some e -> unlink t e

  let pin t key = match T.find_opt t.table key with Some e -> e.pinned <- true | None -> ()
  let unpin t key = match T.find_opt t.table key with Some e -> e.pinned <- false | None -> ()
  let pinned t key = match T.find_opt t.table key with Some e -> e.pinned | None -> false

  let clear t =
    T.reset t.table;
    Queue.clear t.a1in;
    t.a1in_live <- 0;
    t.mru <- None;
    t.lru <- None;
    T.reset t.ghosts;
    Queue.clear t.ghost_fifo

  let iter t f = T.iter (fun k e -> f k e.value) t.table
  let fold t ~init ~f = T.fold (fun k e acc -> f acc k e.value) t.table init

  let stats t =
    { Lru.hits = t.hits; misses = t.misses; evictions = t.evictions; inserts = t.inserts }
end
