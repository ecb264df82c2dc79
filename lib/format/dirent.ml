open Rae_util

type entry = { ino : int; kind_code : int; name : string }

type error =
  | Misaligned of { offset : int }
  | Bad_rec_len of { offset : int; rec_len : int }
  | Overrun of { offset : int; rec_len : int }
  | Bad_name_len of { offset : int; name_len : int; rec_len : int }
  | Bad_name of { offset : int; name : string }
  | Bad_kind_code of { offset : int; code : int }

let error_to_string = function
  | Misaligned { offset } -> Printf.sprintf "misaligned record at %d" offset
  | Bad_rec_len { offset; rec_len } -> Printf.sprintf "bad rec_len %d at %d" rec_len offset
  | Overrun { offset; rec_len } ->
      Printf.sprintf "record at %d with rec_len %d overruns the block" offset rec_len
  | Bad_name_len { offset; name_len; rec_len } ->
      Printf.sprintf "name_len %d exceeds rec_len %d at %d" name_len rec_len offset
  | Bad_name { offset; name } -> Printf.sprintf "invalid name %S at %d" name offset
  | Bad_kind_code { offset; code } -> Printf.sprintf "invalid kind code %d at %d" code offset

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let header_size = 8
let pad4 n = (n + 3) land lnot 3
let record_size name = header_size + pad4 (String.length name)

let empty_block () =
  let b = Bytes.make Layout.block_size '\000' in
  (* ino = 0, rec_len = block_size, name_len = 0, kind = 0 *)
  Codec.set_u16 b 4 Layout.block_size;
  b

let read_header b off =
  (Codec.get_u32_int b off, Codec.get_u16 b (off + 4), Codec.get_u8 b (off + 6), Codec.get_u8 b (off + 7))

(* Allocation-free header field readers for the validating walk; the walk
   checks every range before it reads. *)
let ino_at b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF
let rec_len_at b off = Bytes.get_uint16_le b (off + 4)
let name_len_at b off = Bytes.get_uint8 b (off + 6)
let kind_code_at b off = Bytes.get_uint8 b (off + 7)

(* A live record's name is legal when it is non-empty and holds neither
   '/' nor NUL, which admits "." and ".."; checked in place. *)
let name_ok_at b ~pos ~len =
  let i = ref 0 in
  while !i < len && (match Bytes.get b (pos + !i) with '/' | '\000' -> false | _ -> true) do
    incr i
  done;
  len > 0 && !i = len

exception Malformed of error

(* Validated record walk: calls [f acc ~off ~ino ~rec_len ~name_len
   ~kind_code] for every record (live and free; a live record's name is
   the [name_len] bytes at [off + header_size]) and raises [Malformed]
   with the first structural error.  Names are checked in place, so the
   walk allocates nothing of its own: the error payload is built only on
   failure. *)
let walk_exn b ~init ~f =
  let len = Bytes.length b in
  let off = ref 0 and acc = ref init in
  while !off <> len do
    let o = !off in
    if o > len || o land 3 <> 0 then raise (Malformed (Misaligned { offset = o }));
    if o + header_size > len then
      raise (Malformed (Overrun { offset = o; rec_len = header_size }));
    let ino = ino_at b o and rec_len = rec_len_at b o in
    let name_len = name_len_at b o and kind_code = kind_code_at b o in
    if rec_len < header_size || rec_len land 3 <> 0 then
      raise (Malformed (Bad_rec_len { offset = o; rec_len }));
    if o + rec_len > len then raise (Malformed (Overrun { offset = o; rec_len }));
    if ino <> 0 then begin
      if header_size + name_len > rec_len then
        raise (Malformed (Bad_name_len { offset = o; name_len; rec_len }));
      if not (name_ok_at b ~pos:(o + header_size) ~len:name_len) then
        raise
          (Malformed
             (Bad_name { offset = o; name = Bytes.sub_string b (o + header_size) name_len }));
      if Rae_vfs.Types.kind_of_code kind_code = None then
        raise (Malformed (Bad_kind_code { offset = o; code = kind_code }))
    end;
    acc := f !acc ~off:o ~ino ~rec_len ~name_len ~kind_code;
    off := o + rec_len
  done;
  !acc

let fold b ~init ~f =
  match
    walk_exn b ~init ~f:(fun acc ~off ~ino ~rec_len:_ ~name_len ~kind_code ->
        if ino = 0 then acc
        else f acc { ino; kind_code; name = Bytes.sub_string b (off + header_size) name_len })
  with
  | acc -> Ok acc
  | exception Malformed e -> Error e

let list b = Result.map List.rev (fold b ~init:[] ~f:(fun acc e -> e :: acc))

let list_nocheck b =
  let len = Bytes.length b in
  let rec go off acc =
    if off + header_size > len then List.rev acc
    else
      let ino, rec_len, name_len, kind_code = read_header b off in
      if rec_len < header_size || off + rec_len > len then List.rev acc
      else
        let acc =
          if ino = 0 || header_size + name_len > rec_len then acc
          else
            { ino; kind_code; name = Codec.get_string b ~pos:(off + header_size) ~len:name_len }
            :: acc
        in
        go (off + rec_len) acc
  in
  go 0 []

let write_record b ~off ~ino ~rec_len ~name ~kind_code =
  Codec.set_u32_int b off ino;
  Codec.set_u16 b (off + 4) rec_len;
  Codec.set_u8 b (off + 6) (String.length name);
  Codec.set_u8 b (off + 7) kind_code;
  Codec.set_string b ~pos:(off + header_size) name;
  (* Zero the padding after the name for deterministic images. *)
  let name_end = off + header_size + String.length name in
  let pad_end = off + min rec_len (header_size + pad4 (String.length name)) in
  if pad_end > name_end then Bytes.fill b name_end (pad_end - name_end) '\000'

(* The mutators below walk headers only — no name extraction, no name or
   kind validation.  They operate on blocks that were validated when first
   read from the medium ([validate]/[list] on the read path) or freshly
   created by [empty_block]; extracting a heap string per record just to
   measure or compare it made every insert into a fullish block cost tens
   of microseconds.  On a structurally bad block (bad rec_len) they stop
   and return [false], same as the validated walk did. *)

(* In-place comparison of [name] against the name stored at [off] (whose
   name_len already matched [String.length name]). *)
let name_at_equals b off name =
  let n = String.length name in
  let rec eq i =
    i = n || (Bytes.unsafe_get b (off + header_size + i) = String.unsafe_get name i && eq (i + 1))
  in
  eq 0

let rec_len_ok ~len off rec_len =
  rec_len >= header_size && rec_len land 3 = 0 && off + rec_len <= len

(* Offset of the first record that can take a [name] record — a free
   record big enough, or a live record whose slack after its own name can
   hold it — or -1. *)
let room b ~name =
  let len = Bytes.length b in
  let needed = record_size name in
  let rec go off =
    if off + header_size > len then -1
    else
      let rec_len = Codec.get_u16 b (off + 4) in
      if not (rec_len_ok ~len off rec_len) then -1
      else
        let used =
          if Codec.get_u32_int b off = 0 then 0 else header_size + pad4 (Codec.get_u8 b (off + 6))
        in
        if rec_len - used >= needed then off else go (off + rec_len)
  in
  go 0

let has_room b ~name = room b ~name >= 0

let insert b ~name ~ino ~kind_code =
  match room b ~name with
  | -1 -> false
  | off ->
      let rec_len = Codec.get_u16 b (off + 4) in
      if Codec.get_u32_int b off = 0 then write_record b ~off ~ino ~rec_len ~name ~kind_code
      else begin
        (* Shrink the live record to its needed size, put the new record
           in the freed tail. *)
        let used = header_size + pad4 (Codec.get_u8 b (off + 6)) in
        Codec.set_u16 b (off + 4) used;
        write_record b ~off:(off + used) ~ino ~rec_len:(rec_len - used) ~name ~kind_code
      end;
      true

(* The offsets of [name]'s live record and of the record before it (-1
   when it is the block's first); [(-1, -1)] when absent. *)
let locate b name =
  let len = Bytes.length b in
  let nlen = String.length name in
  let rec go off prev =
    if off + header_size > len then (-1, -1)
    else
      let rec_len = Codec.get_u16 b (off + 4) in
      if not (rec_len_ok ~len off rec_len) then (-1, -1)
      else if
        Codec.get_u32_int b off <> 0 && Codec.get_u8 b (off + 6) = nlen && name_at_equals b off name
      then (off, prev)
      else go (off + rec_len) off
  in
  go 0 (-1)

let mem b name = fst (locate b name) >= 0

let remove b name =
  match locate b name with
  | -1, _ -> false
  | off, prev ->
      if prev >= 0 then
        (* Merge into the predecessor, ext2-style: records are contiguous,
           so the predecessor ends exactly at [off]. *)
        Codec.set_u16 b (prev + 4) (Codec.get_u16 b (prev + 4) + Codec.get_u16 b (off + 4))
      else begin
        (* First record of the block: mark free. *)
        Codec.set_u32_int b off 0;
        Codec.set_u8 b (off + 6) 0;
        Codec.set_u8 b (off + 7) 0
      end;
      true

let set_entry_ino b name ino =
  match locate b name with
  | -1, _ -> false
  | off, _ ->
      Codec.set_u32_int b off ino;
      true

let count b =
  match
    walk_exn b ~init:0 ~f:(fun n ~off:_ ~ino ~rec_len:_ ~name_len:_ ~kind_code:_ ->
        if ino = 0 then n else n + 1)
  with
  | n -> n
  | exception Malformed _ -> 0

let free_bytes b =
  match
    walk_exn b ~init:0 ~f:(fun acc ~off:_ ~ino ~rec_len ~name_len ~kind_code:_ ->
        if ino = 0 then acc + rec_len else acc + (rec_len - header_size - pad4 name_len))
  with
  | n -> n
  | exception Malformed _ -> 0

let validate b =
  match walk_exn b ~init:() ~f:(fun () ~off:_ ~ino:_ ~rec_len:_ ~name_len:_ ~kind_code:_ -> ()) with
  | () -> Ok ()
  | exception Malformed e -> Error e

(* Validate the whole block first, so a malformed record anywhere is
   reported even when [name] sits before it; then the header-only
   [locate] walk, which on a valid block finds the first live record
   named [name], the one [list] would. *)
let find b name =
  match validate b with
  | Error e -> Some (Error e)
  | Ok () -> (
      match locate b name with
      | -1, _ -> None
      | off, _ -> Some (Ok { ino = ino_at b off; kind_code = kind_code_at b off; name }))
