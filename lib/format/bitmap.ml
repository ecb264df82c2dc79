type t = {
  bits : Bytes.t;
  nbits : int;
  (* Maintained population count: [count_set]/[count_free] are O(1) and the
     superblock cross-checks stop re-counting the whole bitmap. *)
  mutable nset : int;
  (* Next-fit rotor: one past the most recent [find_free_next] hit.  Purely
     an in-memory search accelerator — never serialized. *)
  mutable cursor : int;
}

let create ~nbits =
  if nbits <= 0 then invalid_arg "Bitmap.create: nbits must be positive";
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; nset = 0; cursor = 0 }

let nbits t = t.nbits
let copy t = { t with bits = Bytes.copy t.bits }

let check t i what =
  if i < 0 || i >= t.nbits then
    invalid_arg (Printf.sprintf "Bitmap.%s: index %d outside [0,%d)" what i t.nbits)

let test t i =
  check t i "test";
  Char.code (Bytes.get t.bits (i / 8)) land (1 lsl (i mod 8)) <> 0

let set t i =
  check t i "set";
  let byte = i / 8 in
  let v = Char.code (Bytes.get t.bits byte) in
  let mask = 1 lsl (i mod 8) in
  if v land mask = 0 then begin
    Bytes.set t.bits byte (Char.chr (v lor mask));
    t.nset <- t.nset + 1
  end

let clear t i =
  check t i "clear";
  let byte = i / 8 in
  let v = Char.code (Bytes.get t.bits byte) in
  let mask = 1 lsl (i mod 8) in
  if v land mask <> 0 then begin
    Bytes.set t.bits byte (Char.chr (v land lnot mask land 0xFF));
    t.nset <- t.nset - 1
  end

let set_result t i =
  if i < 0 || i >= t.nbits then Error (Printf.sprintf "bit %d out of range" i)
  else if test t i then Error (Printf.sprintf "bit %d already set (double allocation)" i)
  else begin
    set t i;
    Ok ()
  end

let clear_result t i =
  if i < 0 || i >= t.nbits then Error (Printf.sprintf "bit %d out of range" i)
  else if not (test t i) then Error (Printf.sprintf "bit %d already clear (double free)" i)
  else begin
    clear t i;
    Ok ()
  end

(* First clear bit in [a, b), or -1.  Word-level scan: bytes that read 0xFF
   are skipped with one compare, and interior runs of full bytes are skipped
   eight at a time through 64-bit loads.  Padding bits past [nbits] are kept
   zero in memory, so a byte straddling the boundary can never read 0xFF by
   accident; the [b] bound still guards the bit-level pick. *)
let scan_range t a b =
  if a >= b then -1
  else begin
    let bits = t.bits in
    let len = Bytes.length bits in
    let first_byte = a lsr 3 and last_byte = (b - 1) lsr 3 in
    let rec pick v base j hi =
      if j >= hi then -1
      else if v land (1 lsl j) = 0 then base + j
      else pick v base (j + 1) hi
    in
    let rec go bi =
      if bi > last_byte then -1
      else
        let v = Char.code (Bytes.unsafe_get bits bi) in
        if v = 0xFF then begin
          let bi = ref (bi + 1) in
          while
            !bi + 8 <= len && !bi + 7 <= last_byte && Int64.equal (Bytes.get_int64_le bits !bi) (-1L)
          do
            bi := !bi + 8
          done;
          go !bi
        end
        else
          let lo = if bi = first_byte then a land 7 else 0 in
          let hi = if bi = last_byte then ((b - 1) land 7) + 1 else 8 in
          let r = pick v (bi lsl 3) lo hi in
          if r >= 0 then r else go (bi + 1)
    in
    go first_byte
  end

let find_free t ~from =
  if from < 0 || from >= t.nbits then None
  else match scan_range t from t.nbits with -1 -> None | i -> Some i

(* Next-fit: resume at the rotor, wrap once back to [lo].  Finds a free bit
   iff one exists in [lo, nbits); amortized O(1) for append-dominated
   allocation patterns where first-fit re-scans the allocated prefix. *)
let find_free_next t ~lo =
  if lo < 0 || lo >= t.nbits then None
  else begin
    let start = if t.cursor < lo || t.cursor >= t.nbits then lo else t.cursor in
    let i =
      match scan_range t start t.nbits with
      | -1 -> scan_range t lo start
      | i -> i
    in
    if i < 0 then None
    else begin
      t.cursor <- i + 1;
      Some i
    end
  end

let cursor t = t.cursor
let reset_cursor t = t.cursor <- 0

let count_set t = t.nset
let count_free t = t.nbits - t.nset

(* Set bits of a value below 2^32 (SWAR; OCaml's 63-bit ints hold every
   intermediate). *)
let popcount32 v =
  let v = v - ((v lsr 1) land 0x5555_5555) in
  let v = (v land 0x3333_3333) + ((v lsr 2) land 0x3333_3333) in
  let v = (v + (v lsr 4)) land 0x0F0F_0F0F in
  ((v * 0x0101_0101) land 0xFFFF_FFFF) lsr 24

(* Four bytes per step: the attach of every shadow counts both bitmaps. *)
let popcount_bytes bits =
  let len = Bytes.length bits in
  let total = ref 0 and i = ref 0 in
  while !i + 4 <= len do
    total := !total + popcount32 (Int32.to_int (Bytes.get_int32_le bits !i) land 0xFFFF_FFFF);
    i := !i + 4
  done;
  while !i < len do
    total := !total + popcount32 (Char.code (Bytes.get bits !i));
    incr i
  done;
  !total

(* Whether every byte of [b] from [pos] on reads 0xFF, eight at a time. *)
let all_ones_from b pos =
  let len = Bytes.length b in
  let rec go i =
    if i + 8 <= len then Int64.equal (Bytes.get_int64_le b i) (-1L) && go (i + 8)
    else i >= len || (Bytes.get b i = '\xff' && go (i + 1))
  in
  go pos

let to_blocks t ~block_size =
  let nblocks = (Bytes.length t.bits + block_size - 1) / block_size in
  let nblocks = max nblocks 1 in
  let out = List.init nblocks (fun _ -> Bytes.make block_size '\xff') in
  List.iteri
    (fun bi block ->
      let src_off = bi * block_size in
      let len = min block_size (Bytes.length t.bits - src_off) in
      if len > 0 then Bytes.blit t.bits src_off block 0 len)
    out;
  (* Mask padding bits inside the last partially-used byte: in-range bits
     keep their value, out-of-range bits are forced to 1. *)
  let last_byte = (t.nbits - 1) / 8 in
  let used_bits = ((t.nbits - 1) mod 8) + 1 in
  if used_bits < 8 then begin
    let bi = last_byte / block_size and off = last_byte mod block_size in
    match List.nth_opt out bi with
    | None -> ()
    | Some block ->
        let v = Char.code (Bytes.get block off) in
        let mask_high = lnot ((1 lsl used_bits) - 1) land 0xFF in
        Bytes.set block off (Char.chr (v lor mask_high))
  end;
  out

let encode_block_into t index out =
  let nbytes = Bytes.length t.bits and block_size = Bytes.length out in
  if index < 0 || index >= max 1 ((nbytes + block_size - 1) / block_size) then
    invalid_arg (Printf.sprintf "Bitmap.encode_block: block %d out of range" index);
  Bytes.fill out 0 block_size '\xff';
  let src_off = index * block_size in
  let len = min block_size (nbytes - src_off) in
  if len > 0 then Bytes.blit t.bits src_off out 0 len;
  (* Padding bits of the final byte read as allocated, as in [to_blocks]. *)
  let last_byte = (t.nbits - 1) / 8 in
  let used_bits = ((t.nbits - 1) mod 8) + 1 in
  if used_bits < 8 && last_byte / block_size = index then begin
    let off = last_byte mod block_size in
    let mask_high = lnot ((1 lsl used_bits) - 1) land 0xFF in
    Bytes.set out off (Char.chr (Char.code (Bytes.get out off) lor mask_high))
  end

let encode_block t ~block_size index =
  let out = Bytes.create block_size in
  encode_block_into t index out;
  out

(* [view blk f] applies [f] to block [blk]; the bitmap fills blocks
   [start] to [start + count - 1].  [take] copies out what it needs, so
   [view] may lend a block out only for the call. *)
let parse view ~start ~count ~nbits ~strict =
  if nbits <= 0 then Error "nbits must be positive"
  else begin
    let needed_bytes = (nbits + 7) / 8 in
    (* The bitmap's bytes are copied straight out of the blocks; the
       rest of each block must read all-ones in strict mode. *)
    let bits = Bytes.create needed_bytes in
    let tail_ones = ref true in
    let off = ref 0 in
    let take b =
      let n = max 0 (min (Bytes.length b) (needed_bytes - !off)) in
      if n > 0 then Bytes.blit b 0 bits !off n;
      if strict && !tail_ones then tail_ones := all_ones_from b n;
      off := !off + Bytes.length b
    in
    for i = 0 to count - 1 do
      view (start + i) take
    done;
    if !off < needed_bytes then
      Error (Printf.sprintf "bitmap blocks hold %d bytes, need %d" !off needed_bytes)
    else begin
      (* Clear the in-memory padding bits of the final byte. *)
      let used_bits = ((nbits - 1) mod 8) + 1 in
      let padding_ok = ref true in
      if used_bits < 8 then begin
        let v = Char.code (Bytes.get bits (needed_bytes - 1)) in
        let mask_high = lnot ((1 lsl used_bits) - 1) land 0xFF in
        if v land mask_high <> mask_high then padding_ok := false;
        Bytes.set bits (needed_bytes - 1) (Char.chr (v land ((1 lsl used_bits) - 1)))
      end;
      let t = { bits; nbits; nset = popcount_bytes bits; cursor = 0 } in
      if strict && not (!padding_ok && !tail_ones) then Error "bitmap padding bits are not all-ones"
      else Ok t
    end
  end

let parse_list blocks ~nbits ~strict =
  let blocks = Array.of_list blocks in
  parse (fun i f -> f blocks.(i)) ~start:0 ~count:(Array.length blocks) ~nbits ~strict

let of_blocks blocks ~nbits = parse_list blocks ~nbits ~strict:true
let of_view view ~start ~count ~nbits = parse view ~start ~count ~nbits ~strict:true
let of_blocks_lenient blocks ~nbits = parse_list blocks ~nbits ~strict:false

let equal a b = a.nbits = b.nbits && Bytes.equal a.bits b.bits

let iter_set t f =
  for i = 0 to t.nbits - 1 do
    if test t i then f i
  done

let pp ppf t =
  Format.fprintf ppf "bitmap<%d bits, %d set>" t.nbits (count_set t)
