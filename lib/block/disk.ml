type latency = { read_ns : int64; write_ns : int64 }

let default_latency = { read_ns = 10_000L; write_ns = 20_000L }
let zero_latency = { read_ns = 0L; write_ns = 0L }

type t = {
  blocks : bytes array;
  block_size : int;
  latency : latency;
  clock : Rae_util.Vclock.t;
  (* Atomics, like the clock's: one domain owns each disk today (every
     crash-sweep point builds its own), and the counters would not drop
     increments if a disk were shared. *)
  reads : int Atomic.t;
  writes : int Atomic.t;
}

let create ?(latency = default_latency) ?clock ~block_size ~nblocks () =
  if block_size <= 0 || nblocks <= 0 then invalid_arg "Disk.create: non-positive size";
  let clock = match clock with Some c -> c | None -> Rae_util.Vclock.create () in
  {
    blocks = Array.init nblocks (fun _ -> Bytes.make block_size '\000');
    block_size;
    latency;
    clock;
    reads = Atomic.make 0;
    writes = Atomic.make 0;
  }

let block_size t = t.block_size
let nblocks t = Array.length t.blocks
let clock t = t.clock

let check t blk what =
  if blk < 0 || blk >= Array.length t.blocks then
    invalid_arg (Printf.sprintf "Disk.%s: block %d out of range [0,%d)" what blk (Array.length t.blocks))

let read t blk =
  check t blk "read";
  Atomic.incr t.reads;
  Rae_util.Vclock.advance t.clock t.latency.read_ns;
  Bytes.copy t.blocks.(blk)

let write t blk data =
  check t blk "write";
  if Bytes.length data <> t.block_size then
    invalid_arg
      (Printf.sprintf "Disk.write: %d bytes to a %d-byte block" (Bytes.length data) t.block_size);
  Atomic.incr t.writes;
  Rae_util.Vclock.advance t.clock t.latency.write_ns;
  Bytes.blit data 0 t.blocks.(blk) 0 t.block_size

let read_into t blk buf =
  check t blk "read_into";
  if Bytes.length buf <> t.block_size then invalid_arg "Disk.read_into: buffer size mismatch";
  Atomic.incr t.reads;
  Rae_util.Vclock.advance t.clock t.latency.read_ns;
  Bytes.blit t.blocks.(blk) 0 buf 0 t.block_size

let reads t = Atomic.get t.reads
let writes t = Atomic.get t.writes

let reset_counters t =
  Atomic.set t.reads 0;
  Atomic.set t.writes 0

let snapshot t = Array.map Bytes.copy t.blocks

let restore t image =
  if Array.length image <> Array.length t.blocks then
    invalid_arg "Disk.restore: block count mismatch";
  Array.iteri
    (fun i b ->
      if Bytes.length b <> t.block_size then invalid_arg "Disk.restore: block size mismatch";
      Bytes.blit b 0 t.blocks.(i) 0 t.block_size)
    image

let save t path =
  try
    let oc = open_out_bin path in
    Array.iter (fun b -> output_bytes oc b) t.blocks;
    close_out oc;
    Ok ()
  with Sys_error msg -> Error msg

let load ?(latency = default_latency) path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let block_size = 4096 in
    if len = 0 || len mod block_size <> 0 then begin
      close_in ic;
      Error (Printf.sprintf "%s: size %d is not a positive multiple of %d" path len block_size)
    end
    else begin
      let nblocks = len / block_size in
      let t = create ~latency ~block_size ~nblocks () in
      Array.iter (fun b -> really_input ic b 0 block_size) t.blocks;
      close_in ic;
      Ok t
    end
  with Sys_error msg -> Error msg

let corrupt_byte t ~block ~offset f =
  check t block "corrupt_byte";
  if offset < 0 || offset >= t.block_size then invalid_arg "Disk.corrupt_byte: offset";
  let b = t.blocks.(block) in
  Bytes.set b offset (f (Bytes.get b offset))
