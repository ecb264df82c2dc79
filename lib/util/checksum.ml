(* CRC32C over the Castagnoli polynomial 0x1EDC6F41 (reflected:
   0x82F63B78), as used by ext4 metadata_csum, iSCSI and Btrfs.

   Two kernels compute the same function.  On x86-64 CPUs with SSE4.2 a
   C stub ([crc32c_stubs.c]) folds eight bytes per [crc32] instruction,
   in three independent chains over buffers of 768 bytes and more;
   everywhere else the portable slicing-by-8 loop below runs, and it is
   also the reference the tests hold the stub to.  [hardware] picks one,
   once, at module initialization.  That call also builds the stub's
   chain-combining tables, so it must run before any other domain can
   checksum: it does, because it is this module's initializer.

   The portable arithmetic runs on native [int]s (every intermediate
   fits in 32 bits, OCaml ints have 63): an [Int32]-typed loop boxes every
   intermediate, which made checksumming a 4 KiB block cost tens of
   microseconds and dominated every structural block write.  On top of
   that, the classic one-table loop still costs one dependent table
   lookup per byte; slicing-by-8 folds eight input bytes per iteration
   through eight precomputed tables whose lookups are mutually
   independent, which matters here because the superblock flush
   checksums a whole block on every shadow mutation.  Only the public
   interface speaks [Int32]. *)

let mask32 = 0xFFFFFFFF
let poly = 0x82F63B78

(* tables.(0) is the classic byte-at-a-time table; tables.(k).(v) equals
   the CRC of byte [v] followed by [k] zero bytes, so an 8-byte group can
   be folded in one step:

     crc' = T7[b0] ^ T6[b1] ^ ... ^ T0[b7]   with b0..b3 pre-xored
                                             against the running crc. *)
let tables =
  lazy
    (let t = Array.make_matrix 8 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 <> 0 then c := (!c lsr 1) lxor poly else c := !c lsr 1
       done;
       t.(0).(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(k - 1).(n) in
         t.(k).(n) <- t.(0).(prev land 0xFF) lxor (prev lsr 8)
       done
     done;
     t)

(* Advance the raw (pre-inverted) state [c] over [len] bytes of [b] from
   [pos]; the caller has checked the range. *)
let portable_update c b ~pos ~len =
  let t = Lazy.force tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref c in
  let i = ref pos in
  let stop = pos + len in
  (* All table indices are masked to [0, 255] and every table has 256
     entries; [i] stays within [pos, stop), which the caller's range check
     proved in bounds — so the unsafe accesses cannot be out of bounds. *)
  let byte j = Char.code (Bytes.unsafe_get b j) in
  while stop - !i >= 8 do
    let j = !i in
    let lo =
      !c
      lxor (byte j
           lor (byte (j + 1) lsl 8)
           lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t7 (lo land 0xFF)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (byte (j + 4))
      lxor Array.unsafe_get t2 (byte (j + 5))
      lxor Array.unsafe_get t1 (byte (j + 6))
      lxor Array.unsafe_get t0 (byte (j + 7));
    i := j + 8
  done;
  while !i < stop do
    let idx = (!c lxor byte !i) land 0xFF in
    c := Array.unsafe_get t0 idx lxor (!c lsr 8);
    incr i
  done;
  !c

(* Same contract as [portable_update].  The stub reads the bytes in place
   and trusts the range: it must only ever see a checked one. *)
external hardware_update :
  (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "rae_crc32c_hw_byte" "rae_crc32c_hw"
[@@noalloc]

external hardware_available : unit -> bool = "rae_crc32c_hw_available"

let hardware = hardware_available ()
let kernel = if hardware then "sse4.2-3stream" else "portable"

(* Written so that no sum can overflow: [pos + len] wraps for a huge
   [len] and would let a range past the end through. *)
let check_range b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.crc32c: out of bounds"

let crc32c_portable ?(init = 0l) b ~pos ~len =
  check_range b ~pos ~len;
  let c = Int32.to_int init land mask32 lxor mask32 in
  Int32.of_int (portable_update c b ~pos ~len lxor mask32)

let crc32c_int ~init b ~pos ~len =
  check_range b ~pos ~len;
  let c = init land mask32 lxor mask32 in
  let c = if hardware then hardware_update c b pos len else portable_update c b ~pos ~len in
  c lxor mask32

let crc32c ?(init = 0l) b ~pos ~len = Int32.of_int (crc32c_int ~init:(Int32.to_int init) b ~pos ~len)

let crc32c_string s =
  let b = Bytes.unsafe_of_string s in
  crc32c b ~pos:0 ~len:(Bytes.length b)

(* [string_of_int n]'s bytes fed one at a time through the byte table,
   most significant digit first.  The digits are taken from the
   non-positive [-|n|], which cannot overflow even at [min_int]; [m mod 10]
   is then in [-9, 0].  Top-level functions, so no closure is allocated. *)
let decimal_byte t0 c ch = Array.unsafe_get t0 ((c lxor ch) land 0xFF) lxor (c lsr 8)

let rec decimal_digits t0 c m =
  let c = if m <= -10 then decimal_digits t0 c (m / 10) else c in
  decimal_byte t0 c (Char.code '0' - (m mod 10))

let crc32c_decimal n =
  let t0 = (Lazy.force tables).(0) in
  let c =
    if n < 0 then decimal_digits t0 (decimal_byte t0 mask32 (Char.code '-')) n
    else decimal_digits t0 mask32 (-n)
  in
  c lxor mask32

let verify b ~pos ~len ~expect = Int32.equal (crc32c b ~pos ~len) expect
