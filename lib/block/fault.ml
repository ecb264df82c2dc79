(* Fault injection intentionally corrupts blocks underneath the
   filesystem (stuck/torn writes, bit flips), so its raw device writes
   are exempt from the persistence-ordering typestate. *)
[@@@lint_exempt "persist-order"]

type spec =
  | Read_error of { block : int; from_nth : int; count : int }
  | Flip_on_read of { block : int; byte : int; bit : int; from_nth : int; count : int }
  | Stuck_write of { block : int }
  | Torn_write of { block : int; keep_bytes : int }

type t = {
  specs : spec list;
  rng : Rae_util.Rng.t option;
  read_error_rate : float;
  flip_rate : float;
  read_counts : (int, int) Hashtbl.t;  (* per-block read counter *)
  mutable injected : int;
}

let create ?rng ?(read_error_rate = 0.0) ?(flip_rate = 0.0) specs =
  if (read_error_rate > 0.0 || flip_rate > 0.0) && rng = None then
    invalid_arg "Fault.create: probabilistic faults require an rng";
  { specs; rng; read_error_rate; flip_rate; read_counts = Hashtbl.create 64; injected = 0 }

let bump_read t blk =
  let n = (try Hashtbl.find t.read_counts blk with Not_found -> 0) + 1 in
  Hashtbl.replace t.read_counts blk n;
  n

let flip_bit data byte bit =
  if byte < Bytes.length data then begin
    let c = Char.code (Bytes.get data byte) in
    Bytes.set data byte (Char.chr (c lxor (1 lsl (bit land 7))))
  end

let wrap t (dev : Device.t) =
  let read blk =
    let nth = bump_read t blk in
    let fail_deterministic =
      List.exists
        (function
          | Read_error r -> r.block = blk && nth >= r.from_nth && nth - r.from_nth < r.count
          | Flip_on_read _ | Stuck_write _ | Torn_write _ -> false)
        t.specs
    in
    let fail_random =
      match t.rng with
      | Some rng when t.read_error_rate > 0.0 -> Rae_util.Rng.chance rng t.read_error_rate
      | Some _ | None -> false
    in
    if fail_deterministic || fail_random then begin
      t.injected <- t.injected + 1;
      raise (Device.Io_error (Printf.sprintf "simulated read error on block %d" blk))
    end;
    let data = dev.Device.dev_read blk in
    List.iter
      (function
        | Flip_on_read f when f.block = blk && nth >= f.from_nth && nth - f.from_nth < f.count ->
            t.injected <- t.injected + 1;
            flip_bit data f.byte f.bit
        | Flip_on_read _ | Read_error _ | Stuck_write _ | Torn_write _ -> ())
      t.specs;
    (match t.rng with
    | Some rng when t.flip_rate > 0.0 && Rae_util.Rng.chance rng t.flip_rate ->
        t.injected <- t.injected + 1;
        flip_bit data (Rae_util.Rng.int rng (Bytes.length data)) (Rae_util.Rng.int rng 8)
    | Some _ | None -> ());
    data
  in
  let write blk data =
    let stuck =
      List.exists (function Stuck_write s -> s.block = blk | _ -> false) t.specs
    in
    if stuck then t.injected <- t.injected + 1
    else
      let torn =
        List.find_opt (function Torn_write w -> w.block = blk | _ -> false) t.specs
      in
      match torn with
      | Some (Torn_write w) ->
          t.injected <- t.injected + 1;
          let partial = dev.Device.dev_read blk in
          Bytes.blit data 0 partial 0 (min w.keep_bytes (Bytes.length data));
          dev.Device.dev_write blk partial
      | Some (Read_error _ | Flip_on_read _ | Stuck_write _) | None ->
          dev.Device.dev_write blk data
  in
  { dev with Device.dev_read = read; dev_write = write }

let injected t = t.injected
