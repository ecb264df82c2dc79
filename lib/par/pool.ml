(* Fixed-size domain pool.  See pool.mli for the contract.

   Shape: one deque of contiguous-index chunks per participant
   (participant 0 is the caller of [parallel_for]; participants 1..n-1
   are spawned worker domains).  Chunks are dealt round-robin at batch
   start; owners pop their own deque's head, thieves take the tail, so
   steals grab the work farthest from what the owner is about to touch.
   Join is an atomic remaining-chunk counter: the participant that
   retires the last chunk broadcasts [idle], which the caller awaits.
   The first exception a chunk body raises is recorded with a CAS;
   later chunks are drained without running, and the caller re-raises
   after the join — a structured fork/join, nothing escapes. *)

type chunk = { lo : int; hi : int; body : int -> unit }

type deque = { dmu : Mutex.t; mutable items : chunk list }
(* Head of [items] is the owner end; thieves take from the tail.  Deques
   hold at most a handful of chunks, so the O(length) tail removal is
   cheaper than a ring buffer would be. *)

let deque_make () = { dmu = Mutex.create (); items = [] }

let deque_push d c =
  Mutex.lock d.dmu;
  d.items <- c :: d.items;
  Mutex.unlock d.dmu

let deque_pop d =
  Mutex.lock d.dmu;
  let r =
    match d.items with
    | [] -> None
    | c :: rest ->
        d.items <- rest;
        Some c
  in
  Mutex.unlock d.dmu;
  r

let deque_steal d =
  Mutex.lock d.dmu;
  let r =
    match List.rev d.items with
    | [] -> None
    | c :: rest_rev ->
        d.items <- List.rev rest_rev;
        Some c
  in
  Mutex.unlock d.dmu;
  r

type batch = {
  id : int;
  deques : deque array;
  remaining : int Atomic.t;
  failed : exn option Atomic.t;
}

type t = {
  size : int;
  mu : Mutex.t;
  work : Condition.t; (* new batch published, or stopping *)
  idle : Condition.t; (* last chunk of the current batch retired *)
  mutable current : batch option; (* guarded by [mu] *)
  mutable next_id : int; (* guarded by [exec_mu] *)
  mutable stopping : bool; (* guarded by [mu] *)
  mutable workers : unit Domain.t list; (* set once in [create], cleared in [shutdown] *)
  exec_mu : Mutex.t; (* serializes concurrent parallel_for callers *)
  c_tasks : int Atomic.t;
  c_steals : int Atomic.t;
  c_batches : int Atomic.t;
  c_seq : int Atomic.t;
}

type stats = { tasks_run : int; steals : int; batches : int; seq_batches : int }

let size t = t.size

let run_chunk t b c =
  if Atomic.get b.failed = None then begin
    (try
       for i = c.lo to c.hi do
         c.body i
       done
     with e -> ignore (Atomic.compare_and_set b.failed None (Some e)));
    Atomic.incr t.c_tasks
  end;
  if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
    (* Last chunk retired; wake the joining caller. *)
    Mutex.lock t.mu;
    Condition.broadcast t.idle;
    Mutex.unlock t.mu
  end

let work_on t b ~me =
  let n = Array.length b.deques in
  let next () =
    match deque_pop b.deques.(me) with
    | Some c -> Some c
    | None ->
        let rec scan k =
          if k >= n then None
          else
            match deque_steal b.deques.((me + k) mod n) with
            | Some c ->
                Atomic.incr t.c_steals;
                Some c
            | None -> scan (k + 1)
        in
        scan 1
  in
  let rec go () =
    match next () with
    | None -> ()
    | Some c ->
        run_chunk t b c;
        go ()
  in
  go ()

let rec worker_loop t ~me ~last =
  Mutex.lock t.mu;
  let rec await () =
    if t.stopping then None
    else
      match t.current with
      | Some b when b.id <> !last -> Some b
      | _ ->
          Condition.wait t.work t.mu;
          await ()
  in
  match await () with
  | None -> Mutex.unlock t.mu
  | Some b ->
      last := b.id;
      Mutex.unlock t.mu;
      work_on t b ~me;
      worker_loop t ~me ~last

let create ?domains () =
  let n =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let n = max 1 (min 64 n) in
  let t =
    {
      size = n;
      mu = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      current = None;
      next_id = 0;
      stopping = false;
      workers = [];
      exec_mu = Mutex.create ();
      c_tasks = Atomic.make 0;
      c_steals = Atomic.make 0;
      c_batches = Atomic.make 0;
      c_seq = Atomic.make 0;
    }
  in
  if n > 1 then
    t.workers <-
      List.init (n - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t ~me:(i + 1) ~last:(ref 0)));
  t

let sequential_for t ~n body =
  Atomic.incr t.c_seq;
  for i = 0 to n - 1 do
    body i
  done

let parallel_for t ?chunk ~n body =
  if n <= 0 then ()
  else if t.size <= 1 || t.workers = [] then sequential_for t ~n body
  else begin
    let per =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (4 * t.size))
    in
    Mutex.lock t.exec_mu;
    t.next_id <- t.next_id + 1;
    let nchunks = (n + per - 1) / per in
    let deques = Array.init t.size (fun _ -> deque_make ()) in
    let b =
      {
        id = t.next_id;
        deques;
        remaining = Atomic.make nchunks;
        failed = Atomic.make None;
      }
    in
    for k = 0 to nchunks - 1 do
      let lo = k * per in
      let hi = min (n - 1) (lo + per - 1) in
      deque_push deques.(k mod t.size) { lo; hi; body }
    done;
    Mutex.lock t.mu;
    t.current <- Some b;
    Condition.broadcast t.work;
    Mutex.unlock t.mu;
    work_on t b ~me:0;
    Mutex.lock t.mu;
    while Atomic.get b.remaining > 0 do
      Condition.wait t.idle t.mu
    done;
    t.current <- None;
    Mutex.unlock t.mu;
    Atomic.incr t.c_batches;
    Mutex.unlock t.exec_mu;
    match Atomic.get b.failed with Some e -> raise e | None -> ()
  end

let map_array t ?chunk f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for t ?chunk ~n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

let stats t =
  {
    tasks_run = Atomic.get t.c_tasks;
    steals = Atomic.get t.c_steals;
    batches = Atomic.get t.c_batches;
    seq_batches = Atomic.get t.c_seq;
  }

let reset_stats t =
  Atomic.set t.c_tasks 0;
  Atomic.set t.c_steals 0;
  Atomic.set t.c_batches 0;
  Atomic.set t.c_seq 0

let shutdown t =
  Mutex.lock t.mu;
  let was = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mu;
  if not was then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end
