exception Io_error of string
exception Read_only_device

type t = {
  dev_read : int -> bytes;
  dev_write : int -> bytes -> unit;
  dev_flush : unit -> unit;
  dev_recycle : bytes -> unit;
  dev_block_size : int;
  dev_nblocks : int;
}

(* [spare] is the one handed-back buffer waiting for the next read, or
   [Bytes.empty]; a later hand-back replaces it. *)
let of_disk disk =
  let block_size = Disk.block_size disk in
  let spare = ref Bytes.empty in
  let read blk =
    let b = !spare in
    if Bytes.length b = 0 then Disk.read disk blk
    else begin
      Disk.read_into disk blk b;
      spare := Bytes.empty;
      b
    end
  in
  let recycle b =
    if Bytes.length b <> block_size then invalid_arg "Device.recycle: buffer size mismatch";
    spare := b
  in
  {
    dev_read = read;
    dev_write = Disk.write disk;
    dev_flush = (fun () -> ());
    dev_recycle = recycle;
    dev_block_size = block_size;
    dev_nblocks = Disk.nblocks disk;
  }

let read t blk = t.dev_read blk
let write t blk data = t.dev_write blk data
let flush t = t.dev_flush ()
let recycle t buf = t.dev_recycle buf
let block_size t = t.dev_block_size
let nblocks t = t.dev_nblocks

let read_only t =
  {
    t with
    dev_write = (fun _ _ -> raise Read_only_device);
    dev_flush = (fun () -> raise Read_only_device);
  }

let counting t =
  let reads = ref 0 and writes = ref 0 in
  let wrapped =
    {
      t with
      dev_read =
        (fun blk ->
          incr reads;
          t.dev_read blk);
      dev_write =
        (fun blk data ->
          incr writes;
          t.dev_write blk data);
    }
  in
  (wrapped, fun () -> (!reads, !writes))
