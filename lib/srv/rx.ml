(* Live bytes are [buf[pos, pos + len)]. *)
type t = { mutable buf : bytes; mutable pos : int; mutable len : int }

let create () = { buf = Bytes.empty; pos = 0; len = 0 }
let length t = t.len

let clear t =
  t.buf <- Bytes.empty;
  t.pos <- 0;
  t.len <- 0

(* Moving the live bytes down costs at most half the buffer, and only
   after at least that many bytes were appended since the last move;
   growing at least doubles.  Either way a byte is copied a constant
   number of times, amortized. *)
let append t s off n =
  let cap = Bytes.length t.buf in
  if t.pos + t.len + n > cap then begin
    let need = t.len + n in
    let buf = if 2 * need <= cap then t.buf else Bytes.create (max need (2 * cap)) in
    Bytes.blit t.buf t.pos buf 0 t.len;
    t.buf <- buf;
    t.pos <- 0
  end;
  Bytes.blit_string s off t.buf (t.pos + t.len) n;
  t.len <- t.len + n

(* An emptied backlog keeps a buffer up to this size and gives a larger
   one back. *)
let keep = 65536

let next t =
  match Wire.decode t.buf ~pos:t.pos ~len:t.len with
  | Wire.Frame (_, n) as r ->
      t.pos <- t.pos + n;
      t.len <- t.len - n;
      if t.len = 0 then begin
        t.pos <- 0;
        if Bytes.length t.buf > keep then t.buf <- Bytes.empty
      end;
      r
  | (Wire.Need_more | Wire.Fail _) as r -> r
