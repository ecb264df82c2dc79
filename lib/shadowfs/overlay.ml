module Device = Rae_block.Device
module Itbl = Rae_util.Tbl.Int

type t = {
  dev : Device.t;  (* read-only *)
  blocks : bytes Itbl.t;
  mutable device_reads : int;
}

let create dev = { dev = Device.read_only dev; blocks = Itbl.create 64; device_reads = 0 }

let read t blk =
  match Itbl.find_opt t.blocks blk with
  | Some b -> Bytes.copy b
  | None ->
      t.device_reads <- t.device_reads + 1;
      Device.read t.dev blk

(* Every caller hands over a buffer it built (or got from [read]) and
   does not touch again, so [data] itself becomes the stored block: a
   block enters or replaces its overlay entry without a copy. *)
let write t blk data =
  if blk < 0 || blk >= Device.nblocks t.dev then
    invalid_arg (Printf.sprintf "Overlay.write: block %d out of range" blk);
  if Bytes.length data <> Device.block_size t.dev then
    invalid_arg "Overlay.write: wrong block size";
  Itbl.replace t.blocks blk data

(* A miss buffer goes back to the device once [f] is done with
   it (overlay.mli forbids [f] to keep it); if [f] raises, it is
   dropped. *)
let view t blk f =
  match Itbl.find_opt t.blocks blk with
  | Some stored -> f stored
  | None ->
      t.device_reads <- t.device_reads + 1;
      let b = Device.read t.dev blk in
      let r = f b in
      Device.recycle t.dev b;
      r

let rmw t blk f =
  if blk < 0 || blk >= Device.nblocks t.dev then
    invalid_arg (Printf.sprintf "Overlay.rmw: block %d out of range" blk);
  match Itbl.find_opt t.blocks blk with
  | Some stored -> ignore (f stored : bool)
  | None ->
      t.device_reads <- t.device_reads + 1;
      (* The caller owns the device's buffer, so ownership transfers to
         the overlay — but only if [f] actually changed it; an untouched
         block must not show up in the dirty set, and its buffer goes
         back to the device. *)
      let b = Device.read t.dev blk in
      if f b then Itbl.replace t.blocks blk b else Device.recycle t.dev b

let mem t blk = Itbl.mem t.blocks blk

let dirty t =
  Itbl.fold (fun blk data acc -> (blk, data) :: acc) t.blocks []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let dirty_count t = Itbl.length t.blocks
let reads_from_device t = t.device_reads
