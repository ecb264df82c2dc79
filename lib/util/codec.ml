exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

(* Written so that no sum can overflow: [off + len] wraps for an [off]
   near [max_int] and would let a read past the end through. *)
let check b off len what =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    fail "%s: offset %d len %d outside buffer of %d bytes" what off len (Bytes.length b)

let get_u8 b off =
  check b off 1 "get_u8";
  Char.code (Bytes.get b off)

let get_u16 b off =
  check b off 2 "get_u16";
  Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

(* The u32 accessors go through [Bytes.get_int32_le]/[set_int32_le],
   which the compiler keeps unboxed: the format layers make tens of these
   calls per op, so none of them may allocate. *)
let get_u32_int b off =
  check b off 4 "get_u32";
  Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF

let get_u32 b off = Int64.of_int (get_u32_int b off)

let get_i32 b off =
  check b off 4 "get_i32";
  Bytes.get_int32_le b off

let get_u64 b off =
  check b off 8 "get_u64";
  Bytes.get_int64_le b off

let get_string b ~pos ~len =
  check b pos len "get_string";
  Bytes.sub_string b pos len

let set_u8 b off v =
  check b off 1 "set_u8";
  Bytes.set b off (Char.chr (v land 0xFF))

let set_u16 b off v =
  check b off 2 "set_u16";
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF))

(* Both store the low 32 bits of [v]. *)
let set_u32_int b off v =
  check b off 4 "set_u32";
  Bytes.set_int32_le b off (Int32.of_int v)

let set_u32 b off v = set_u32_int b off (Int64.to_int v)

let set_i32 b off v =
  check b off 4 "set_i32";
  Bytes.set_int32_le b off v

let set_u64 b off v =
  check b off 8 "set_u64";
  Bytes.set_int64_le b off v

let set_string b ~pos s =
  check b pos (String.length s) "set_string";
  Bytes.blit_string s 0 b pos (String.length s)

module Cursor = struct
  type t = { buf : bytes; mutable pos : int }

  let of_bytes ?(pos = 0) buf = { buf; pos }
  let pos c = c.pos
  let seek c p = c.pos <- p
  let remaining c = Bytes.length c.buf - c.pos

  let read_u8 c =
    let v = get_u8 c.buf c.pos in
    c.pos <- c.pos + 1;
    v

  let read_u16 c =
    let v = get_u16 c.buf c.pos in
    c.pos <- c.pos + 2;
    v

  let read_u32 c =
    let v = get_u32 c.buf c.pos in
    c.pos <- c.pos + 4;
    v

  let read_u32_int c =
    let v = get_u32_int c.buf c.pos in
    c.pos <- c.pos + 4;
    v

  let read_u64 c =
    let v = get_u64 c.buf c.pos in
    c.pos <- c.pos + 8;
    v

  let read_string c ~len =
    let v = get_string c.buf ~pos:c.pos ~len in
    c.pos <- c.pos + len;
    v

  let write_u8 c v =
    set_u8 c.buf c.pos v;
    c.pos <- c.pos + 1

  let write_u16 c v =
    set_u16 c.buf c.pos v;
    c.pos <- c.pos + 2

  let write_u32 c v =
    set_u32 c.buf c.pos v;
    c.pos <- c.pos + 4

  let write_u32_int c v =
    set_u32_int c.buf c.pos v;
    c.pos <- c.pos + 4

  let write_u64 c v =
    set_u64 c.buf c.pos v;
    c.pos <- c.pos + 8

  let write_string c s =
    set_string c.buf ~pos:c.pos s;
    c.pos <- c.pos + String.length s

  let pad_to c off =
    if off < c.pos then fail "pad_to: target %d before cursor %d" off c.pos;
    Bytes.fill c.buf c.pos (off - c.pos) '\000';
    c.pos <- off
end
