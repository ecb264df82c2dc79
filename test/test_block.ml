(* Tests for rae_block: disk, device, fault injection, blk-mq, crashsim. *)

open Rae_block

let bs = 4096

let mk_disk ?(nblocks = 64) () = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks ()

let block_of_char c = Bytes.make bs c

(* ---- Disk ---- *)

let test_disk_rw () =
  let d = mk_disk () in
  Alcotest.(check int) "nblocks" 64 (Disk.nblocks d);
  Alcotest.(check bool) "fresh reads zero" true (Bytes.equal (Disk.read d 0) (block_of_char '\000'));
  Disk.write d 5 (block_of_char 'x');
  Alcotest.(check bool) "read back" true (Bytes.equal (Disk.read d 5) (block_of_char 'x'))

let test_disk_read_is_copy () =
  let d = mk_disk () in
  Disk.write d 1 (block_of_char 'a');
  let b = Disk.read d 1 in
  Bytes.fill b 0 bs 'z';
  Alcotest.(check bool) "medium unchanged" true (Bytes.equal (Disk.read d 1) (block_of_char 'a'))

let test_disk_bounds () =
  let d = mk_disk () in
  (try ignore (Disk.read d 64); Alcotest.fail "expected out of range" with Invalid_argument _ -> ());
  (try ignore (Disk.read d (-1)); Alcotest.fail "expected out of range" with Invalid_argument _ -> ());
  try Disk.write d 0 (Bytes.make 10 'x'); Alcotest.fail "expected size mismatch"
  with Invalid_argument _ -> ()

let test_disk_latency_clock () =
  let d = Disk.create ~latency:{ Disk.read_ns = 100L; write_ns = 250L } ~block_size:bs ~nblocks:4 () in
  ignore (Disk.read d 0);
  Disk.write d 0 (block_of_char 'q');
  ignore (Disk.read d 1);
  Alcotest.(check int64) "2 reads + 1 write" 450L (Rae_util.Vclock.now (Disk.clock d))

let test_disk_counters () =
  let d = mk_disk () in
  ignore (Disk.read d 0);
  ignore (Disk.read d 1);
  Disk.write d 2 (block_of_char 'w');
  Alcotest.(check (pair int int)) "counters" (2, 1) (Disk.reads d, Disk.writes d);
  Disk.reset_counters d;
  Alcotest.(check (pair int int)) "reset" (0, 0) (Disk.reads d, Disk.writes d)

let test_disk_snapshot_restore () =
  let d = mk_disk () in
  Disk.write d 3 (block_of_char 'a');
  let snap = Disk.snapshot d in
  Disk.write d 3 (block_of_char 'b');
  Disk.write d 4 (block_of_char 'c');
  Disk.restore d snap;
  Alcotest.(check bool) "block 3 restored" true (Bytes.equal (Disk.read d 3) (block_of_char 'a'));
  Alcotest.(check bool) "block 4 restored" true (Bytes.equal (Disk.read d 4) (block_of_char '\000'))

let test_disk_corrupt_byte () =
  let d = mk_disk () in
  Disk.write d 7 (block_of_char 'a');
  Disk.corrupt_byte d ~block:7 ~offset:100 (fun _ -> 'Z');
  let b = Disk.read d 7 in
  Alcotest.(check char) "corrupted" 'Z' (Bytes.get b 100);
  Alcotest.(check char) "neighbours intact" 'a' (Bytes.get b 99)

(* ---- Device ---- *)

let test_device_read_only () =
  let d = mk_disk () in
  let dev = Device.read_only (Device.of_disk d) in
  ignore (Device.read dev 0);
  (try Device.write dev 0 (block_of_char 'x'); Alcotest.fail "write must raise"
   with Device.Read_only_device -> ());
  try Device.flush dev; Alcotest.fail "flush must raise" with Device.Read_only_device -> ()

let test_device_counting () =
  let dev, counts = Device.counting (Device.of_disk (mk_disk ())) in
  ignore (Device.read dev 0);
  ignore (Device.read dev 1);
  Device.write dev 2 (block_of_char 'x');
  Alcotest.(check (pair int int)) "counted" (2, 1) (counts ())

(* [Device.write] copies (device.mli): the journal encodes its header
   blocks into one buffer it reuses, and the base writes through a cached
   block as soon as the commit that wrote it returns.  So every handle
   must keep the bytes it was given, not the caller's later ones.  Each
   write below is followed by scribbling over the caller's buffer. *)
let test_device_write_copies () =
  let old = 'o' in
  let write dev blk c =
    let b = block_of_char c in
    Device.write dev blk b;
    Bytes.fill b 0 bs '#'
  in
  let check name dev blk expect =
    Alcotest.(check bool) (Printf.sprintf "%s: block %d" name blk) true
      (Bytes.equal (Device.read dev blk) expect)
  in
  let fresh () =
    let d = mk_disk () in
    for blk = 0 to 7 do
      Disk.write d blk (block_of_char old)
    done;
    d
  in
  let plain name dev =
    write dev 3 'a';
    write dev 4 'b';
    check name dev 3 (block_of_char 'a');
    check name dev 4 (block_of_char 'b')
  in
  plain "of_disk" (Device.of_disk (fresh ()));
  plain "counting" (fst (Device.counting (Device.of_disk (fresh ()))));
  plain "fault, no spec" (Fault.wrap (Fault.create []) (Device.of_disk (fresh ())));
  (* Crashsim: the volatile buffer, the traced events and the medium
     after a flush all keep the written bytes. *)
  let d = fresh () in
  let sim, dev = Crashsim.create ~trace:true (Device.of_disk d) in
  plain "crashsim, buffered" dev;
  (match Crashsim.events sim with
  | [| Crashsim.Write (3, a); Crashsim.Write (4, b) |] ->
      Alcotest.(check bool) "crashsim: traced payloads" true
        (Bytes.equal a (block_of_char 'a') && Bytes.equal b (block_of_char 'b'))
  | _ -> Alcotest.fail "crashsim: expected two traced writes");
  Device.flush dev;
  check "crashsim, flushed" (Device.of_disk d) 3 (block_of_char 'a');
  check "crashsim, flushed" (Device.of_disk d) 4 (block_of_char 'b');
  (* A stuck write leaves the old block; a torn one keeps the written
     prefix over the old rest. *)
  let dev = Fault.wrap (Fault.create [ Fault.Stuck_write { block = 3 } ]) (Device.of_disk (fresh ())) in
  write dev 3 'a';
  write dev 4 'b';
  check "stuck write" dev 3 (block_of_char old);
  check "stuck write" dev 4 (block_of_char 'b');
  let keep = 100 in
  let dev =
    Fault.wrap (Fault.create [ Fault.Torn_write { block = 3; keep_bytes = keep } ]) (Device.of_disk (fresh ()))
  in
  write dev 3 'a';
  write dev 4 'b';
  let torn = block_of_char old in
  Bytes.fill torn 0 keep 'a';
  check "torn write" dev 3 torn;
  check "torn write" dev 4 (block_of_char 'b')

(* [Device.read] refills a handed-back buffer whole (device.mli).  Each
   check hands back a buffer of 0xff bytes and reads a block whose bytes
   all differ from it: the result must be the block's bytes, and where
   the read reaches [of_disk]'s pool, the handed-back buffer itself. *)
let test_device_recycled_read () =
  let image blk = Bytes.init bs (fun i -> Char.chr ((blk * 31 + i) land 0x7f)) in
  let fresh () =
    let d = mk_disk () in
    for blk = 0 to 7 do
      Disk.write d blk (image blk)
    done;
    d
  in
  let check name dev blk expect =
    let stale = Bytes.make bs '\xff' in
    Device.recycle dev stale;
    let got = Device.read dev blk in
    Alcotest.(check bool) (Printf.sprintf "%s: block %d's bytes" name blk) true (Bytes.equal got expect);
    Alcotest.(check bool) (name ^ ": the handed-back buffer") true (got == stale)
  in
  check "of_disk" (Device.of_disk (fresh ())) 3 (image 3);
  check "read_only" (Device.read_only (Device.of_disk (fresh ()))) 3 (image 3);
  check "counting" (fst (Device.counting (Device.of_disk (fresh ())))) 3 (image 3);
  (* Crashsim serves a pending write from its own copy and leaves the
     handed-back buffer to the next read of the medium. *)
  let _sim, dev = Crashsim.create (Device.of_disk (fresh ())) in
  Device.write dev 4 (block_of_char 'p');
  let stale = Bytes.make bs '\xff' in
  Device.recycle dev stale;
  let got = Device.read dev 4 in
  Alcotest.(check bool) "crashsim, pending write: its bytes" true (Bytes.equal got (block_of_char 'p'));
  Alcotest.(check bool) "crashsim, pending write: a copy" false (got == stale);
  let got = Device.read dev 5 in
  Alcotest.(check bool) "crashsim, medium: block bytes" true (Bytes.equal got (image 5));
  Alcotest.(check bool) "crashsim, medium: the handed-back buffer" true (got == stale);
  check "crashsim, no pending write" dev 6 (image 6);
  (* Fault flips a bit in the refilled buffer, and a read error leaves
     the handed-back buffer for the next read. *)
  let f = Fault.create [ Fault.Flip_on_read { block = 1; byte = 10; bit = 0; from_nth = 1; count = 1 } ] in
  let dev = Fault.wrap f (Device.of_disk (fresh ())) in
  let flipped = image 1 in
  Bytes.set flipped 10 (Char.chr (Char.code (Bytes.get flipped 10) lxor 1));
  check "fault, flip on read" dev 1 flipped;
  check "fault, flip healed" dev 1 (image 1);
  let f = Fault.create [ Fault.Read_error { block = 2; from_nth = 1; count = 2 } ] in
  let dev = Fault.wrap f (Device.of_disk (fresh ())) in
  let stale = Bytes.make bs '\xff' in
  Device.recycle dev stale;
  for _ = 1 to 2 do
    try
      ignore (Device.read dev 2);
      Alcotest.fail "fault: the window's reads must fail"
    with Device.Io_error _ -> ()
  done;
  let got = Device.read dev 2 in
  Alcotest.(check bool) "fault, after the window: block bytes" true (Bytes.equal got (image 2));
  Alcotest.(check bool) "fault, after the window: the handed-back buffer" true (got == stale);
  check "fault, later read" dev 2 (image 2);
  (* A refill is a read like any other: a [counting] wrapper and a
     hand-made [{ d with dev_read }] wrapper each count one per read. *)
  let d = fresh () in
  let raw = Device.of_disk d in
  let by_hand = ref 0 in
  let wrapped =
    {
      raw with
      Device.dev_read =
        (fun blk ->
          incr by_hand;
          raw.Device.dev_read blk);
    }
  in
  let dev, counts = Device.counting wrapped in
  for blk = 0 to 7 do
    Device.recycle dev (Device.read dev blk)
  done;
  Alcotest.(check (pair int int)) "counting wrapper" (8, 0) (counts ());
  Alcotest.(check int) "hand-made wrapper" 8 !by_hand;
  Alcotest.(check int) "disk reads" 8 (Disk.reads d)

(* [recycle] refuses a buffer of the wrong size, as [Disk.read_into]
   does, and [of_disk]'s handle holds one buffer: of two hand-backs in a
   row, the first is dropped, so two reads return the second and then a
   fresh buffer. *)
let test_device_recycle_bounds () =
  let dev = Device.of_disk (mk_disk ()) in
  (try
     Device.recycle dev (Bytes.create (bs - 1));
     Alcotest.fail "a short buffer must be refused"
   with Invalid_argument _ -> ());
  let first = block_of_char 'x' and second = block_of_char 'y' in
  Device.recycle dev first;
  Device.recycle dev second;
  let a = Device.read dev 0 in
  let b = Device.read dev 0 in
  Alcotest.(check bool) "the second refilled" true (a == second);
  Alcotest.(check bool) "the first dropped" false (b == first || b == second);
  Alcotest.(check bool) "all zero" true
    (Bytes.equal a (block_of_char '\000') && Bytes.equal b (block_of_char '\000'))

(* ---- Fault ---- *)

let test_fault_read_error_window () =
  let d = mk_disk () in
  let f = Fault.create [ Fault.Read_error { block = 3; from_nth = 2; count = 2 } ] in
  let dev = Fault.wrap f (Device.of_disk d) in
  ignore (Device.read dev 3) (* 1st: ok *);
  (try ignore (Device.read dev 3); Alcotest.fail "2nd read must fail" with Device.Io_error _ -> ());
  (try ignore (Device.read dev 3); Alcotest.fail "3rd read must fail" with Device.Io_error _ -> ());
  ignore (Device.read dev 3) (* 4th: ok again *);
  Alcotest.(check int) "two injections" 2 (Fault.injected f)

(* [count = max_int] is a fault that never heals: the window's end must
   not overflow. *)
let test_fault_persistent_read_error () =
  let d = mk_disk () in
  let f = Fault.create [ Fault.Read_error { block = 3; from_nth = 2; count = max_int } ] in
  let dev = Fault.wrap f (Device.of_disk d) in
  ignore (Device.read dev 3) (* 1st: ok *);
  for _ = 2 to 50 do
    try
      ignore (Device.read dev 3);
      Alcotest.fail "every later read must fail"
    with Device.Io_error _ -> ()
  done;
  Alcotest.(check int) "49 injections" 49 (Fault.injected f)

let test_fault_flip_on_read () =
  let d = mk_disk () in
  Disk.write d 1 (block_of_char 'a');
  let f = Fault.create [ Fault.Flip_on_read { block = 1; byte = 10; bit = 0; from_nth = 1; count = 1 } ] in
  let dev = Fault.wrap f (Device.of_disk d) in
  let b1 = Device.read dev 1 in
  Alcotest.(check bool) "first read corrupted" false (Bytes.get b1 10 = 'a');
  let b2 = Device.read dev 1 in
  Alcotest.(check char) "second read clean (transient)" 'a' (Bytes.get b2 10);
  Alcotest.(check bool) "medium intact" true (Bytes.equal (Disk.read d 1) (block_of_char 'a'))

let test_fault_stuck_write () =
  let d = mk_disk () in
  Disk.write d 2 (block_of_char 'o');
  let f = Fault.create [ Fault.Stuck_write { block = 2 } ] in
  let dev = Fault.wrap f (Device.of_disk d) in
  Device.write dev 2 (block_of_char 'n');
  Alcotest.(check bool) "write lost" true (Bytes.equal (Disk.read d 2) (block_of_char 'o'))

let test_fault_torn_write () =
  let d = mk_disk () in
  Disk.write d 4 (block_of_char 'o');
  let f = Fault.create [ Fault.Torn_write { block = 4; keep_bytes = 100 } ] in
  let dev = Fault.wrap f (Device.of_disk d) in
  Device.write dev 4 (block_of_char 'n');
  let b = Disk.read d 4 in
  Alcotest.(check char) "head written" 'n' (Bytes.get b 0);
  Alcotest.(check char) "head written to 99" 'n' (Bytes.get b 99);
  Alcotest.(check char) "tail torn" 'o' (Bytes.get b 100)

let test_fault_probabilistic_requires_rng () =
  try
    ignore (Fault.create ~read_error_rate:0.5 []);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_fault_probabilistic_rate () =
  let d = mk_disk () in
  let rng = Rae_util.Rng.create 1L in
  let f = Fault.create ~rng ~read_error_rate:0.5 [] in
  let dev = Fault.wrap f (Device.of_disk d) in
  let failures = ref 0 in
  for _ = 1 to 200 do
    try ignore (Device.read dev 0) with Device.Io_error _ -> incr failures
  done;
  Alcotest.(check bool) "roughly half fail" true (!failures > 50 && !failures < 150)

(* ---- Blkmq ---- *)

let test_blkmq_read_write () =
  let d = mk_disk () in
  let mq = Blkmq.create (Device.of_disk d) in
  let w = Blkmq.submit_write mq 3 (block_of_char 'k') in
  Alcotest.(check bool) "write completes" true (Blkmq.wait mq w = None);
  let r = Blkmq.submit_read mq 3 in
  (match Blkmq.wait mq r with
  | Some data -> Alcotest.(check bool) "read returns write" true (Bytes.equal data (block_of_char 'k'))
  | None -> Alcotest.fail "read returned no data")

let test_blkmq_write_merging () =
  let d = mk_disk () in
  let mq = Blkmq.create ~nr_queues:1 (Device.of_disk d) in
  let _w1 = Blkmq.submit_write mq 5 (block_of_char 'a') in
  let _w2 = Blkmq.submit_write mq 5 (block_of_char 'b') in
  Blkmq.drain mq;
  Alcotest.(check bool) "last write wins" true (Bytes.equal (Disk.read d 5) (block_of_char 'b'));
  Alcotest.(check int) "one merge" 1 (Blkmq.stats mq).Blkmq.merged;
  Alcotest.(check int) "only one device write" 1 (Disk.writes d)

let test_blkmq_no_cross_block_merge () =
  let d = mk_disk () in
  let mq = Blkmq.create ~nr_queues:1 (Device.of_disk d) in
  ignore (Blkmq.submit_write mq 1 (block_of_char 'a'));
  ignore (Blkmq.submit_write mq 2 (block_of_char 'b'));
  Blkmq.drain mq;
  Alcotest.(check int) "no merges" 0 (Blkmq.stats mq).Blkmq.merged;
  Alcotest.(check int) "two writes" 2 (Disk.writes d)

let test_blkmq_stats_and_depth () =
  let d = mk_disk () in
  let mq = Blkmq.create ~nr_queues:2 ~batch:4 (Device.of_disk d) in
  let reqs = List.init 10 (fun i -> Blkmq.submit_read mq (i mod 8)) in
  Alcotest.(check int) "in flight before kick" 10 (Blkmq.in_flight mq);
  List.iter (fun r -> ignore (Blkmq.wait mq r)) reqs;
  let s = Blkmq.stats mq in
  Alcotest.(check int) "submitted" 10 s.Blkmq.submitted;
  Alcotest.(check int) "completed" 10 s.Blkmq.completed;
  Alcotest.(check bool) "max depth tracked" true (s.Blkmq.max_queue_depth >= 5);
  Alcotest.(check int) "drained" 0 (Blkmq.in_flight mq)

let test_blkmq_device_error_propagates () =
  let d = mk_disk () in
  let f = Fault.create [ Fault.Read_error { block = 0; from_nth = 1; count = 10 } ] in
  let mq = Blkmq.create (Fault.wrap f (Device.of_disk d)) in
  let r = Blkmq.submit_read mq 0 in
  (try ignore (Blkmq.wait mq r); Alcotest.fail "expected Io_error" with Device.Io_error _ -> ());
  Alcotest.(check bool) "marked failed" true (Blkmq.failed r)

(* ---- Crashsim ---- *)

let test_crashsim_buffering () =
  let d = mk_disk () in
  let sim, dev = Crashsim.create (Device.of_disk d) in
  Device.write dev 1 (block_of_char 'x');
  Alcotest.(check int) "buffered" 1 (Crashsim.pending sim);
  Alcotest.(check bool) "medium untouched" true (Bytes.equal (Disk.read d 1) (block_of_char '\000'));
  Alcotest.(check bool) "read sees buffer" true (Bytes.equal (Device.read dev 1) (block_of_char 'x'));
  Device.flush dev;
  Alcotest.(check int) "drained" 0 (Crashsim.pending sim);
  Alcotest.(check bool) "medium updated" true (Bytes.equal (Disk.read d 1) (block_of_char 'x'))

let test_crashsim_crash_loses_pending () =
  let d = mk_disk () in
  let sim, dev = Crashsim.create (Device.of_disk d) in
  Device.write dev 1 (block_of_char 'a');
  Device.flush dev;
  Device.write dev 1 (block_of_char 'b');
  Device.write dev 2 (block_of_char 'c');
  Crashsim.crash sim;
  Alcotest.(check bool) "flushed survives" true (Bytes.equal (Disk.read d 1) (block_of_char 'a'));
  Alcotest.(check bool) "pending lost" true (Bytes.equal (Disk.read d 2) (block_of_char '\000'))

let test_crashsim_partial_subset () =
  (* Partial crash applies a subset: each block ends up either old or new. *)
  let d = mk_disk () in
  let rng = Rae_util.Rng.create 7L in
  let sim, dev = Crashsim.create ~rng (Device.of_disk d) in
  for blk = 0 to 19 do
    Device.write dev blk (block_of_char 'n')
  done;
  Crashsim.crash_partial sim;
  let applied = ref 0 in
  for blk = 0 to 19 do
    let b = Disk.read d blk in
    let c = Bytes.get b 0 in
    Alcotest.(check bool) "old or new" true (c = 'n' || c = '\000');
    if c = 'n' then incr applied
  done;
  Alcotest.(check bool) "a strict subset applied" true (!applied > 0 && !applied < 20)

let test_crashsim_flush_ordering () =
  let d = mk_disk () in
  let sim, dev = Crashsim.create (Device.of_disk d) in
  Device.write dev 1 (block_of_char 'a');
  Device.write dev 1 (block_of_char 'b');
  Device.flush dev;
  Alcotest.(check bool) "last write wins on flush" true (Bytes.equal (Disk.read d 1) (block_of_char 'b'));
  Alcotest.(check int) "one flush" 1 (Crashsim.flushes sim)

let () =
  Alcotest.run "rae_block"
    [
      ( "disk",
        [
          Alcotest.test_case "read/write" `Quick test_disk_rw;
          Alcotest.test_case "read returns copy" `Quick test_disk_read_is_copy;
          Alcotest.test_case "bounds" `Quick test_disk_bounds;
          Alcotest.test_case "latency charges clock" `Quick test_disk_latency_clock;
          Alcotest.test_case "counters" `Quick test_disk_counters;
          Alcotest.test_case "snapshot/restore" `Quick test_disk_snapshot_restore;
          Alcotest.test_case "corrupt_byte" `Quick test_disk_corrupt_byte;
        ] );
      ( "device",
        [
          Alcotest.test_case "read_only enforced" `Quick test_device_read_only;
          Alcotest.test_case "counting wrapper" `Quick test_device_counting;
          Alcotest.test_case "write copies the caller's buffer" `Quick test_device_write_copies;
          Alcotest.test_case "read overwrites a recycled buffer whole" `Quick test_device_recycled_read;
          Alcotest.test_case "recycle: wrong size refused, one buffer held" `Quick test_device_recycle_bounds;
        ] );
      ( "fault",
        [
          Alcotest.test_case "read error window" `Quick test_fault_read_error_window;
          Alcotest.test_case "persistent read error" `Quick test_fault_persistent_read_error;
          Alcotest.test_case "flip on read (transient)" `Quick test_fault_flip_on_read;
          Alcotest.test_case "stuck write" `Quick test_fault_stuck_write;
          Alcotest.test_case "torn write" `Quick test_fault_torn_write;
          Alcotest.test_case "probabilistic needs rng" `Quick test_fault_probabilistic_requires_rng;
          Alcotest.test_case "probabilistic rate" `Quick test_fault_probabilistic_rate;
        ] );
      ( "blkmq",
        [
          Alcotest.test_case "read/write" `Quick test_blkmq_read_write;
          Alcotest.test_case "write merging" `Quick test_blkmq_write_merging;
          Alcotest.test_case "no cross-block merge" `Quick test_blkmq_no_cross_block_merge;
          Alcotest.test_case "stats and depth" `Quick test_blkmq_stats_and_depth;
          Alcotest.test_case "device error propagates" `Quick test_blkmq_device_error_propagates;
        ] );
      ( "crashsim",
        [
          Alcotest.test_case "buffering" `Quick test_crashsim_buffering;
          Alcotest.test_case "crash loses pending" `Quick test_crashsim_crash_loses_pending;
          Alcotest.test_case "partial crash subset" `Quick test_crashsim_partial_subset;
          Alcotest.test_case "flush ordering" `Quick test_crashsim_flush_ordering;
        ] );
    ]
