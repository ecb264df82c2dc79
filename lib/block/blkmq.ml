type rkind = Read | Write of bytes

type req = {
  block : int;
  kind : rkind;
  mutable state : [ `Queued | `Done of bytes option | `Failed of string | `Merged ];
}

type stats = {
  submitted : int;
  completed : int;
  merged : int;
  kicks : int;
  max_queue_depth : int;
}

type t = {
  dev : Device.t;
  queues : req Queue.t array;
  batch : int;
  mutable next_queue : int;
  mutable s_submitted : int;
  mutable s_completed : int;
  mutable s_merged : int;
  mutable s_kicks : int;
  mutable s_maxdepth : int;
}

let create ?(nr_queues = 4) ?(batch = 32) ?carry dev =
  if nr_queues <= 0 || batch <= 0 then invalid_arg "Blkmq.create";
  let count f = match carry with Some q -> f q | None -> 0 in
  {
    dev;
    queues = Array.init nr_queues (fun _ -> Queue.create ());
    batch;
    next_queue = 0;
    s_submitted = count (fun q -> q.s_submitted);
    s_completed = count (fun q -> q.s_completed);
    s_merged = count (fun q -> q.s_merged);
    s_kicks = count (fun q -> q.s_kicks);
    s_maxdepth = count (fun q -> q.s_maxdepth);
  }

let depth t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

let enqueue t req =
  let q = t.queues.(t.next_queue) in
  t.next_queue <- (t.next_queue + 1) mod Array.length t.queues;
  (* Write merging: a queued write to the same block is superseded by the
     new one, like request merging in the software queues of blk-mq. *)
  (match req.kind with
  | Write _ ->
      Queue.iter
        (fun r ->
          match (r.state, r.kind) with
          | `Queued, Write _ when r.block = req.block ->
              r.state <- `Merged;
              t.s_merged <- t.s_merged + 1
          | _ -> ())
        q
  | Read -> ());
  Queue.add req q;
  t.s_submitted <- t.s_submitted + 1;
  t.s_maxdepth <- max t.s_maxdepth (depth t)

let submit_read t block =
  let req = { block; kind = Read; state = `Queued } in
  enqueue t req;
  req

(* No copy: the request owns [data] until it completes (blkmq.mli). *)
let submit_write t block data =
  let req = { block; kind = Write data; state = `Queued } in
  enqueue t req;
  req

let dispatch_one t req =
  match req.state with
  | `Done _ | `Failed _ | `Merged -> ()
  | `Queued -> (
      match req.kind with
      | Read -> (
          match t.dev.Device.dev_read req.block with
          | data ->
              req.state <- `Done (Some data);
              t.s_completed <- t.s_completed + 1
          | exception Device.Io_error msg ->
              req.state <- `Failed msg;
              t.s_completed <- t.s_completed + 1)
      | Write data -> (
          match t.dev.Device.dev_write req.block data with
          | () ->
              req.state <- `Done None;
              t.s_completed <- t.s_completed + 1
          | exception Device.Io_error msg ->
              req.state <- `Failed msg;
              t.s_completed <- t.s_completed + 1))

(* Requests enter the queues round-robin and leave oldest first, so
   what is queued is always the newest [depth] submissions, and the
   oldest heads the queue [depth] places before [next_queue].  Taking
   [batch] rounds across the queues from there dispatches up to [batch]
   per queue, in submission order. *)
let kick t =
  t.s_kicks <- t.s_kicks + 1;
  let nq = Array.length t.queues in
  let d = depth t in
  let q = ref ((t.next_queue - (d mod nq) + nq) mod nq) in
  for _ = 1 to min d (t.batch * nq) do
    dispatch_one t (Queue.pop t.queues.(!q));
    q := (!q + 1) mod nq
  done

let rec wait t req =
  match req.state with
  | `Done data -> data
  | `Failed msg -> raise (Device.Io_error msg)
  | `Merged -> None  (* superseded write: the merging write carries the data *)
  | `Queued ->
      kick t;
      wait t req

let failed req = match req.state with `Failed _ -> true | `Queued | `Done _ | `Merged -> false

let drain t =
  while depth t > 0 do
    kick t
  done;
  Device.flush t.dev

let in_flight t = depth t

let stats t =
  {
    submitted = t.s_submitted;
    completed = t.s_completed;
    merged = t.s_merged;
    kicks = t.s_kicks;
    max_queue_depth = t.s_maxdepth;
  }

(* Registration goes through a getter so the sampled instance can change
   underneath the registry (a contained reboot replaces the queue layer). *)
let register_obs reg ?(prefix = "blkmq") get =
  let c name help sample =
    Rae_obs.Metrics.register_counter reg ~help (prefix ^ "_" ^ name) (fun () -> sample (get ()))
  in
  c "submitted_total" "block requests submitted" (fun t -> t.s_submitted);
  c "completed_total" "block requests completed" (fun t -> t.s_completed);
  c "merged_total" "same-block writes merged in the software queues" (fun t -> t.s_merged);
  c "kicks_total" "dispatch kicks" (fun t -> t.s_kicks);
  Rae_obs.Metrics.register_gauge reg ~help:"high-water software queue depth"
    (prefix ^ "_max_queue_depth")
    (fun () -> float_of_int (get ()).s_maxdepth);
  Rae_obs.Metrics.register_gauge reg ~help:"requests currently queued"
    (prefix ^ "_in_flight")
    (fun () -> float_of_int (depth (get ())))
