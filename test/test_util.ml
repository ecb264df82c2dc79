(* Unit and property tests for rae_util: checksums, codecs, RNG, clock. *)

open Rae_util

let check_i32 = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%08lx" v) Int32.equal

(* ---- Checksum ---- *)

(* Both kernels: [crc32c] (the SSE4.2 stub where the CPU has it) and the
   portable slicing-by-8 reference. *)
let kernels =
  [
    ("crc32c", fun b ~pos ~len -> Checksum.crc32c b ~pos ~len);
    ("portable", fun b ~pos ~len -> Checksum.crc32c_portable b ~pos ~len);
  ]

let test_crc32c_known_vectors () =
  (* Canonical CRC32C test vectors (RFC 3720 appendix / kernel selftests). *)
  List.iter
    (fun (kernel, crc) ->
      let crc_string s = crc (Bytes.of_string s) ~pos:0 ~len:(String.length s) in
      let check name want s = Alcotest.check check_i32 (kernel ^ ": " ^ name) want (crc_string s) in
      check "empty" 0x00000000l "";
      check "123456789" 0xE3069283l "123456789";
      check "32 zeros" 0x8A9136AAl (String.make 32 '\000');
      check "32 0xff" 0x62A8AB43l (String.make 32 '\xff');
      check "32 ascending" 0x46DD794El (String.init 32 Char.chr))
    kernels;
  Alcotest.check check_i32 "crc32c_string" 0xE3069283l (Checksum.crc32c_string "123456789")

let test_crc32c_differs_on_flip () =
  let b = Bytes.of_string "the quick brown fox" in
  let c1 = Checksum.crc32c b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set b 3 'X';
  let c2 = Checksum.crc32c b ~pos:0 ~len:(Bytes.length b) in
  Alcotest.(check bool) "flip changes checksum" false (Int32.equal c1 c2)

let test_crc32c_bounds () =
  let b = Bytes.create 8 in
  Alcotest.check_raises "negative pos" (Invalid_argument "Checksum.crc32c: out of bounds")
    (fun () -> ignore (Checksum.crc32c b ~pos:(-1) ~len:4));
  Alcotest.check_raises "overlong" (Invalid_argument "Checksum.crc32c: out of bounds") (fun () ->
      ignore (Checksum.crc32c b ~pos:4 ~len:8));
  (* [pos + len] wraps to a negative sum here; the check must not. *)
  List.iter
    (fun (kernel, crc) ->
      Alcotest.check_raises (kernel ^ ": len max_int")
        (Invalid_argument "Checksum.crc32c: out of bounds") (fun () ->
          ignore (crc (Bytes.make 16 'a') ~pos:1 ~len:max_int)))
    kernels

(* Lengths across the 8-byte fold (short tails, non-multiples of 8), and
   on both sides of each point where the stub changes how it runs: three
   chains from 3 x 256 bytes, longer chunks from 3 x 2048, and two long
   rounds.  Unaligned starts and arbitrary seeds. *)
let prop_crc32c_kernels_agree =
  let boundaries = [ 768; 6144; 2 * 6144 ] in
  let near_boundary =
    QCheck2.Gen.(map2 (fun b d -> b + d) (oneofl boundaries) (int_range (-1) 1))
  in
  QCheck2.Test.make ~name:"crc32c = portable crc32c" ~count:1000
    QCheck2.Gen.(
      quad
        (oneof [ int_bound 17; near_boundary; int_bound 9000; int_bound 20_000 ])
        (int_bound 15) ui32 int)
    (fun (len, pos, init, fill) ->
      let rng = Random.State.make [| fill |] in
      let byte _ = Char.chr (Random.State.int rng 256) in
      let b = Bytes.init (pos + len + Random.State.int rng 8) byte in
      Int32.equal (Checksum.crc32c ~init b ~pos ~len) (Checksum.crc32c_portable ~init b ~pos ~len))

let test_crc32c_int_matches () =
  let b = Bytes.of_string "123456789 and then some" in
  List.iter
    (fun init ->
      let want =
        Int32.to_int (Checksum.crc32c ~init:(Int32.of_int init) b ~pos:2 ~len:17) land 0xFFFF_FFFF
      in
      Alcotest.(check int) (Printf.sprintf "init %d" init) want
        (Checksum.crc32c_int ~init b ~pos:2 ~len:17))
    [ 0; 1; 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFF; -1; min_int; max_int ];
  Alcotest.check_raises "bounds" (Invalid_argument "Checksum.crc32c: out of bounds") (fun () ->
      ignore (Checksum.crc32c_int ~init:0 b ~pos:20 ~len:4))

let prop_crc32c_int_agrees =
  QCheck2.Test.make ~name:"crc32c_int = crc32c" ~count:500
    QCheck2.Gen.(triple (int_bound 300) (int_bound 15) int)
    (fun (len, pos, init) ->
      let rng = Random.State.make [| len; pos; init |] in
      let b = Bytes.init (pos + len) (fun _ -> Char.chr (Random.State.int rng 256)) in
      Checksum.crc32c_int ~init b ~pos ~len
      = Int32.to_int (Checksum.crc32c ~init:(Int32.of_int init) b ~pos ~len) land 0xFFFF_FFFF)

(* The inode checksum seed: every sign, every digit count, both ends of
   the int range. *)
let prop_crc32c_decimal =
  let edges = [ 0; 1; 9; 10; 99; 100; 1023; 1024; 65535; -1; -9; -10; max_int; min_int; min_int + 1 ] in
  QCheck2.Test.make ~name:"crc32c_decimal n = crc32c_string (string_of_int n)" ~count:1000
    QCheck2.Gen.(oneof [ oneofl edges; int_bound 100_000; int; map (fun n -> -n) (int_bound 1000) ])
    (fun n ->
      Checksum.crc32c_decimal n
      = Int32.to_int (Checksum.crc32c_string (string_of_int n)) land 0xFFFF_FFFF)

let test_verify () =
  let b = Bytes.of_string "payload" in
  let c = Checksum.crc32c b ~pos:0 ~len:7 in
  Alcotest.(check bool) "verify ok" true (Checksum.verify b ~pos:0 ~len:7 ~expect:c);
  Alcotest.(check bool) "verify bad" false
    (Checksum.verify b ~pos:0 ~len:7 ~expect:(Int32.add c 1l))

(* ---- Codec ---- *)

let test_codec_roundtrip_fixed () =
  let b = Bytes.make 64 '\000' in
  Codec.set_u8 b 0 0xAB;
  Codec.set_u16 b 1 0xBEEF;
  Codec.set_u32 b 3 0xDEADBEEFL;
  Codec.set_u64 b 7 0x0123456789ABCDEFL;
  Codec.set_u32_int b 15 4294967295;
  Alcotest.(check int) "u8" 0xAB (Codec.get_u8 b 0);
  Alcotest.(check int) "u16" 0xBEEF (Codec.get_u16 b 1);
  Alcotest.(check int64) "u32" 0xDEADBEEFL (Codec.get_u32 b 3);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Codec.get_u64 b 7);
  Alcotest.(check int) "u32_int max" 4294967295 (Codec.get_u32_int b 15)

let test_codec_bounds () =
  let b = Bytes.create 4 in
  let raises f = try f (); false with Codec.Decode_error _ -> true in
  Alcotest.(check bool) "u16 over end" true (raises (fun () -> ignore (Codec.get_u16 b 3)));
  Alcotest.(check bool) "u32 over end" true (raises (fun () -> ignore (Codec.get_u32 b 1)));
  Alcotest.(check bool) "u64 over end" true (raises (fun () -> ignore (Codec.get_u64 b 0)));
  Alcotest.(check bool) "negative offset" true (raises (fun () -> ignore (Codec.get_u8 b (-1))));
  Alcotest.(check bool) "set over end" true (raises (fun () -> Codec.set_u32 b 1 0L))

(* Every accessor rejects every offset that puts any of its bytes outside
   the buffer, with [Decode_error]. *)
let test_codec_every_out_of_range_offset () =
  let len = 12 in
  let b = Bytes.make len '\000' in
  let accessors =
    [
      ("get_u8", 1, fun off -> ignore (Codec.get_u8 b off));
      ("get_u16", 2, fun off -> ignore (Codec.get_u16 b off));
      ("get_u32", 4, fun off -> ignore (Codec.get_u32 b off));
      ("get_u32_int", 4, fun off -> ignore (Codec.get_u32_int b off));
      ("get_i32", 4, fun off -> ignore (Codec.get_i32 b off));
      ("get_u64", 8, fun off -> ignore (Codec.get_u64 b off));
      ("set_u8", 1, fun off -> Codec.set_u8 b off 1);
      ("set_u16", 2, fun off -> Codec.set_u16 b off 1);
      ("set_u32", 4, fun off -> Codec.set_u32 b off 0xFFFF_FFFFL);
      ("set_u32_int", 4, fun off -> Codec.set_u32_int b off 0xFFFF_FFFF);
      ("set_i32", 4, fun off -> Codec.set_i32 b off 1l);
      ("set_u64", 8, fun off -> Codec.set_u64 b off 1L);
    ]
  in
  List.iter
    (fun (name, width, f) ->
      for off = -width - 2 to len + 2 do
        let in_range = off >= 0 && off + width <= len in
        let raised = try f off; false with Codec.Decode_error _ -> true in
        Alcotest.(check bool) (Printf.sprintf "%s at %d raises" name off) (not in_range) raised
      done)
    accessors;
  List.iter
    (fun off ->
      let raised = try ignore (Codec.get_u32 b off); false with Codec.Decode_error _ -> true in
      Alcotest.(check bool) (Printf.sprintf "get_u32 at %d raises" off) true raised)
    [ min_int; max_int; max_int - 2 ]

(* The byte loops the unboxed u32 accessors replaced, kept as their
   reference. *)
module Ref_u32 = struct
  let get_u32 b off =
    let g i = Int64.of_int (Char.code (Bytes.get b (off + i))) in
    Int64.logor (g 0)
      (Int64.logor
         (Int64.shift_left (g 1) 8)
         (Int64.logor (Int64.shift_left (g 2) 16) (Int64.shift_left (g 3) 24)))

  let get_u32_int b off = Int64.to_int (get_u32 b off)

  let set_u32 b off v =
    for i = 0 to 3 do
      Bytes.set b (off + i)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
    done

  let set_u32_int b off v = set_u32 b off (Int64.of_int v)
end

(* Random buffers, offsets (some out of range) and values: 32-bit values
   at and past 2^31, full-range and negative [int64]s for [set_u32],
   full-range and negative [int]s for [set_u32_int]. *)
let prop_u32_matches_byte_loops =
  QCheck2.Gen.(
    let v64 =
      oneof
        [
          map Int64.of_int (int_bound 0x7FFF_FFFF);
          map (fun v -> Int64.add 0x8000_0000L (Int64.of_int v)) (int_bound 0x7FFF_FFFF);
          ui64;
          map Int64.neg (map Int64.of_int (int_bound 0xFFFF_FFFF));
          oneofl [ 0L; 0xFFFF_FFFFL; 0x1_0000_0000L; -1L; Int64.min_int; Int64.max_int ];
        ]
    in
    let vint = oneof [ int_bound 0xFFFF_FFFF; int; oneofl [ -1; min_int; max_int; 0x8000_0000 ] ] in
    let input = tup5 (int_range 4 40) (int_range (-6) 44) v64 vint int in
    QCheck2.Test.make ~name:"codec u32 = byte-loop reference" ~count:2000 input
      (fun (len, off, v64, vint, fill) ->
        let rng = Random.State.make [| fill |] in
        let b = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
        if off < 0 || off + 4 > len then
          List.for_all
            (fun f -> try f (); false with Codec.Decode_error _ -> true)
            [
              (fun () -> ignore (Codec.get_u32 b off));
              (fun () -> ignore (Codec.get_u32_int b off));
              (fun () -> Codec.set_u32 (Bytes.copy b) off v64);
              (fun () -> Codec.set_u32_int (Bytes.copy b) off vint);
            ]
        else
          let set f g v =
            let x = Bytes.copy b and y = Bytes.copy b in
            f x off v;
            g y off v;
            Bytes.equal x y
          in
          Int64.equal (Codec.get_u32 b off) (Ref_u32.get_u32 b off)
          && Codec.get_u32_int b off = Ref_u32.get_u32_int b off
          && set Codec.set_u32 Ref_u32.set_u32 v64
          && set Codec.set_u32_int Ref_u32.set_u32_int vint))

let test_cursor () =
  let b = Bytes.make 32 '\000' in
  let c = Codec.Cursor.of_bytes b in
  Codec.Cursor.write_u8 c 7;
  Codec.Cursor.write_u16 c 300;
  Codec.Cursor.write_u32_int c 70000;
  Codec.Cursor.write_string c "abc";
  Codec.Cursor.pad_to c 16;
  Codec.Cursor.write_u64 c 42L;
  Alcotest.(check int) "cursor pos after writes" 24 (Codec.Cursor.pos c);
  let r = Codec.Cursor.of_bytes b in
  Alcotest.(check int) "u8" 7 (Codec.Cursor.read_u8 r);
  Alcotest.(check int) "u16" 300 (Codec.Cursor.read_u16 r);
  Alcotest.(check int) "u32" 70000 (Codec.Cursor.read_u32_int r);
  Alcotest.(check string) "string" "abc" (Codec.Cursor.read_string r ~len:3);
  Codec.Cursor.seek r 16;
  Alcotest.(check int64) "u64" 42L (Codec.Cursor.read_u64 r)

let prop_u32_roundtrip =
  QCheck2.Test.make ~name:"codec u32 roundtrip" ~count:500
    QCheck2.Gen.(pair (int_bound 59) ui64)
    (fun (off, v) ->
      let v = Int64.logand v 0xFFFFFFFFL in
      let b = Bytes.make 64 '\000' in
      Codec.set_u32 b off v;
      Int64.equal (Codec.get_u32 b off) v)

let prop_u64_roundtrip =
  QCheck2.Test.make ~name:"codec u64 roundtrip" ~count:500
    QCheck2.Gen.(pair (int_bound 56) ui64)
    (fun (off, v) ->
      let b = Bytes.make 64 '\000' in
      Codec.set_u64 b off v;
      Int64.equal (Codec.get_u64 b off) v)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_int_range () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "int_in range" true (v >= 5 && v <= 9)
  done

let test_rng_invalid () =
  let rng = Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Rng.int_in rng 5 4));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let test_rng_pick_weighted () =
  let rng = Rng.create 3L in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = Rng.pick_weighted rng [ (1, "a"); (0, "never"); (9, "b") ] in
    Hashtbl.replace counts v ((try Hashtbl.find counts v with Not_found -> 0) + 1)
  done;
  Alcotest.(check bool) "never has weight 0" false (Hashtbl.mem counts "never");
  let a = try Hashtbl.find counts "a" with Not_found -> 0 in
  let b = try Hashtbl.find counts "b" with Not_found -> 0 in
  Alcotest.(check bool) "roughly 1:9" true (b > 5 * a)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let a = Rng.create 5L in
  let b = Rng.split a in
  let va = Rng.next a and vb = Rng.next b in
  Alcotest.(check bool) "different streams" false (Int64.equal va vb)

let prop_chance_bounds =
  QCheck2.Test.make ~name:"rng float in [0,bound)" ~count:200 QCheck2.Gen.(float_range 0.001 100.)
    (fun bound ->
      let rng = Rng.create 99L in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

(* ---- Vclock ---- *)

let test_vclock () =
  let c = Vclock.create () in
  Alcotest.(check int64) "starts at 0" 0L (Vclock.now c);
  Vclock.advance c 500L;
  Vclock.advance c 1500L;
  Alcotest.(check int64) "accumulates" 2000L (Vclock.now c);
  Alcotest.check_raises "negative" (Invalid_argument "Vclock.advance: negative delta") (fun () ->
      Vclock.advance c (-1L));
  Vclock.reset c;
  Alcotest.(check int64) "reset" 0L (Vclock.now c)

let test_vclock_pp () =
  let s ns = Format.asprintf "%a" Vclock.pp_duration ns in
  Alcotest.(check string) "ns" "500ns" (s 500L);
  Alcotest.(check string) "us" "1.50us" (s 1500L);
  Alcotest.(check string) "ms" "2.00ms" (s 2_000_000L);
  Alcotest.(check string) "s" "3.000s" (s 3_000_000_000L)

(* ---- Tbl ---- *)

type tbl_op =
  | T_replace of int * int
  | T_remove of int
  | T_find of int
  | T_mem of int
  | T_length
  | T_fold
  | T_iter
  | T_reset

let tbl_op_to_string = function
  | T_replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | T_remove k -> Printf.sprintf "remove %d" k
  | T_find k -> Printf.sprintf "find %d" k
  | T_mem k -> Printf.sprintf "mem %d" k
  | T_length -> "length"
  | T_fold -> "fold"
  | T_iter -> "iter"
  | T_reset -> "reset"

(* The int table answers every call as [Stdlib.Hashtbl] does.  Keys come
   from a small range, from multiples of a block (4,096) and of a
   directory block's entry count (146), from negatives, and from the
   extremes — [min_int] is the key that marks free slots — and a
   sequence runs long enough to grow the table several times.  The walks
   stop at the last binding, so the sequence ends by removing every key,
   and [iter] and [fold] must still agree as the table empties. *)
let prop_tbl_int_matches_hashtbl =
  let open QCheck2.Gen in
  let key =
    frequency
      [
        (4, int_range (-8) 40);
        (3, map (fun i -> i * 4096) (int_bound 300));
        (3, map (fun i -> i * 146) (int_bound 300));
        (2, map (fun i -> -i) (int_bound 5000));
        (1, oneofl [ max_int; min_int; max_int - 4096; min_int + 1 ]);
      ]
  in
  let op =
    frequency
      [
        (12, map2 (fun k v -> T_replace (k, v)) key small_nat);
        (5, map (fun k -> T_remove k) key);
        (5, map (fun k -> T_find k) key);
        (3, map (fun k -> T_mem k) key);
        (1, pure T_length);
        (1, pure T_fold);
        (1, pure T_iter);
        (1, frequency [ (1, pure T_reset); (30, pure T_length) ]);
      ]
  in
  QCheck2.Test.make ~name:"Tbl.Int = Hashtbl (replace/remove/find/mem/length/fold/reset)"
    ~count:300
    ~print:(fun (n, ops) ->
      Printf.sprintf "create %d: %s" n (String.concat "; " (List.map tbl_op_to_string ops)))
    (pair (int_range 0 20) (list_size (int_range 0 1500) op))
    (fun (n, ops) ->
      let t = Tbl.Int.create n and h = Hashtbl.create n in
      let bindings fold x = List.sort compare (fold (fun k v acc -> (k, v) :: acc) x []) in
      let iterated () =
        let l = ref [] in
        Tbl.Int.iter (fun k v -> l := (k, v) :: !l) t;
        List.sort compare !l
      in
      List.iteri
        (fun i op ->
          let agree what ok =
            if not ok then
              QCheck2.Test.fail_reportf "op %d (%s): %s differ" i (tbl_op_to_string op) what
          in
          match op with
          | T_replace (k, v) ->
              Tbl.Int.replace t k v;
              Hashtbl.replace h k v
          | T_remove k ->
              Tbl.Int.remove t k;
              Hashtbl.remove h k
          | T_find k -> agree "find_opt" (Tbl.Int.find_opt t k = Hashtbl.find_opt h k)
          | T_mem k -> agree "mem" (Tbl.Int.mem t k = Hashtbl.mem h k)
          | T_length -> agree "length" (Tbl.Int.length t = Hashtbl.length h)
          | T_fold -> agree "fold" (bindings Tbl.Int.fold t = bindings Hashtbl.fold h)
          | T_iter -> agree "iter" (iterated () = bindings Hashtbl.fold h)
          | T_reset ->
              Tbl.Int.reset t;
              Hashtbl.reset h)
        ops;
      let walks_agree () =
        let l = iterated () in
        Tbl.Int.length t = Hashtbl.length h
        && l = bindings Hashtbl.fold h
        && bindings Tbl.Int.fold t = l
        && List.for_all (fun (k, _) -> Tbl.Int.mem t k) l
      in
      (* Empty the table by removals, walking it whenever the bindings
         left are a power of two, and once it is empty. *)
      walks_agree ()
      && List.for_all
           (fun (k, _) ->
             Tbl.Int.remove t k;
             Hashtbl.remove h k;
             let left = Hashtbl.length h in
             left land (left - 1) <> 0 || walks_agree ())
           (bindings Hashtbl.fold h))

(* [mem], a miss, a [replace] of a present key, a walk and [remove]
   allocate nothing; neither does hashing a string. *)
let test_tbl_int_no_alloc () =
  let n = 1000 in
  let t = Tbl.Int.create n in
  let keys = Array.init n (fun i -> i * 4096) in
  Array.iter (fun k -> Tbl.Int.replace t k k) keys;
  (* Loops, not [Array.iter]: its closure would be the one allocation. *)
  let words name f = Alcotest.(check (float 0.)) name 0. (Alloc_words.minor_words f) in
  words "mem" (fun () ->
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (Tbl.Int.mem t keys.(i)))
      done);
  words "miss" (fun () ->
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (Tbl.Int.find_opt t (keys.(i) + 1)))
      done);
  words "replace present" (fun () ->
      for i = 0 to n - 1 do
        Tbl.Int.replace t keys.(i) i
      done);
  words "iter" (fun () -> Tbl.Int.iter (fun k v -> ignore (Sys.opaque_identity (k + v))) t);
  words "fold" (fun () -> ignore (Sys.opaque_identity (Tbl.Int.fold (fun k _ acc -> acc + k) t 0)));
  words "remove" (fun () ->
      for i = 0 to n - 1 do
        Tbl.Int.remove t keys.(i)
      done);
  Alcotest.(check int) "emptied" 0 (Tbl.Int.length t);
  let name = String.make 19 'm' in
  words "hash_string" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Tbl.hash_string name))
      done)

(* Block numbers strided by 4,096 spread over the slots: the longest
   linear probe for 4,096 of them at the table's load (half full) stays
   short.  The identity hash would send them all to one or two slots. *)
let test_tbl_int_spread () =
  let n = 4096 and slots = 8192 in
  let used = Array.make slots false in
  let longest = ref 0 in
  for i = 0 to n - 1 do
    let rec place j d =
      if used.(j) then place ((j + 1) land (slots - 1)) (d + 1)
      else begin
        used.(j) <- true;
        longest := max !longest d
      end
    in
    place (Tbl.hash_int (i * 4096) land (slots - 1)) 0
  done;
  if !longest > 8 then Alcotest.failf "longest probe %d slots" !longest

let test_tbl_hashes () =
  Alcotest.(check bool) "never negative" true
    (List.for_all (fun k -> Tbl.hash_int k >= 0) [ 0; 1; -1; max_int; min_int ]);
  Alcotest.(check bool) "every length" true
    (List.for_all
       (fun n ->
         let s = String.init n (fun i -> Char.chr (97 + (i mod 26))) in
         let s' = String.mapi (fun i c -> if i = n - 1 then 'A' else c) s in
         Tbl.hash_string s >= 0 && Tbl.hash_string s = Tbl.hash_string (String.init n (String.get s))
         && Tbl.hash_string s <> Tbl.hash_string s')
       (List.init 40 (fun i -> i + 1)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_util"
    [
      ( "checksum",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32c_known_vectors;
          Alcotest.test_case "bit flip detected" `Quick test_crc32c_differs_on_flip;
          Alcotest.test_case "bounds" `Quick test_crc32c_bounds;
          Alcotest.test_case "verify" `Quick test_verify;
          Alcotest.test_case "crc32c_int edge seeds" `Quick test_crc32c_int_matches;
          q prop_crc32c_kernels_agree;
          q prop_crc32c_int_agrees;
          q prop_crc32c_decimal;
        ] );
      ( "codec",
        [
          Alcotest.test_case "fixed roundtrip" `Quick test_codec_roundtrip_fixed;
          Alcotest.test_case "bounds checked" `Quick test_codec_bounds;
          Alcotest.test_case "every out-of-range offset" `Quick test_codec_every_out_of_range_offset;
          Alcotest.test_case "cursor" `Quick test_cursor;
          q prop_u32_roundtrip;
          q prop_u64_roundtrip;
          q prop_u32_matches_byte_loops;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int ranges" `Quick test_rng_int_range;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          Alcotest.test_case "weighted pick" `Quick test_rng_pick_weighted;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          q prop_chance_bounds;
        ] );
      ( "vclock",
        [
          Alcotest.test_case "advance/reset" `Quick test_vclock;
          Alcotest.test_case "duration pp" `Quick test_vclock_pp;
        ] );
      ( "tbl",
        [
          q prop_tbl_int_matches_hashtbl;
          Alcotest.test_case "int table allocates nothing" `Quick test_tbl_int_no_alloc;
          Alcotest.test_case "strided keys spread" `Quick test_tbl_int_spread;
          Alcotest.test_case "hashes" `Quick test_tbl_hashes;
        ] );
    ]
