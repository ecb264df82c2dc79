(* The host-speed reference.

   On a shared host a core's speed drifts with its neighbours' load, up
   to 2x for seconds at a time, which no run length averages out.  The
   measured run therefore pins the generator and the daemon to one core
   and, between short slices of load, times a fixed kernel on that core.
   A slice's durations are scaled by [factor]: the kernel's reference
   time over its time around the slice, so they read as they would on a
   core running the kernel in [ref_chunk_ns].

   The kernel mixes what the serving path does: small allocations, hash
   table updates, 4 KiB copies and a pipe round trip through the kernel.
   It is the benchmark's own code, so a change to the program under test
   cannot move it. *)

let tbl : (int, string) Hashtbl.t = Hashtbl.create 256
let buf = Bytes.create 8192
let pipe = lazy (Unix.pipe ~cloexec:true ())

let chunk () =
  let r, w = Lazy.force pipe in
  for i = 0 to 31 do
    Hashtbl.replace tbl (i * 7919 land 255) (Bytes.sub_string buf (i * 64) 64);
    Bytes.blit buf 0 buf 4096 4096
  done;
  ignore (Unix.write w buf 0 64 : int);
  ignore (Unix.read r buf 0 64 : int)

(* Whole chunks for at least [ns] of wall time; nanoseconds per chunk. *)
let measure ns =
  let t0 = Stats.now () in
  let n = ref 0 in
  while Stats.since t0 < ns do
    chunk ();
    incr n
  done;
  Stats.since t0 /. float_of_int !n

(* The reference: scaled figures read as on a core that runs one chunk
   in this time.  A 2.1 GHz Xeon vCPU on a shared host takes 3000 to
   6500 ns as its neighbours come and go. *)
let ref_chunk_ns = 5000.

let factor chunk_ns = ref_chunk_ns /. chunk_ns
