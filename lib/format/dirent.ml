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
   '/' nor NUL, which admits "." and ".."; checked in place, over a range
   the caller has checked against the block. *)
let rec name_bytes_ok b pos stop =
  pos = stop
  || match Bytes.unsafe_get b pos with '/' | '\000' -> false | _ -> name_bytes_ok b (pos + 1) stop

let name_ok_at b ~pos ~len = len > 0 && name_bytes_ok b pos (pos + len)

exception Malformed of error

(* The check of the record at [o] in a block of [len] bytes, every record
   before it having passed: raises [Malformed] with the record's first
   structural error, else returns its [rec_len].  A live record's name is
   the [name_len] bytes at [o + header_size].  Names are checked in place,
   so a passing record allocates nothing: the error payload is built only
   on failure.  [walk_exn], [validate] and [find] all check through here,
   so they give the same verdict in the same order. *)
let check_record b ~len o =
  if o > len || o land 3 <> 0 then raise (Malformed (Misaligned { offset = o }));
  if o + header_size > len then raise (Malformed (Overrun { offset = o; rec_len = header_size }));
  let rec_len = rec_len_at b o in
  if rec_len < header_size || rec_len land 3 <> 0 then
    raise (Malformed (Bad_rec_len { offset = o; rec_len }));
  if o + rec_len > len then raise (Malformed (Overrun { offset = o; rec_len }));
  if ino_at b o <> 0 then begin
    let name_len = name_len_at b o in
    if header_size + name_len > rec_len then
      raise (Malformed (Bad_name_len { offset = o; name_len; rec_len }));
    if not (name_ok_at b ~pos:(o + header_size) ~len:name_len) then
      raise
        (Malformed (Bad_name { offset = o; name = Bytes.sub_string b (o + header_size) name_len }));
    let code = kind_code_at b o in
    match Rae_vfs.Types.kind_of_code code with
    | None -> raise (Malformed (Bad_kind_code { offset = o; code }))
    | Some _ -> ()
  end;
  rec_len

(* Validated record walk: calls [f acc ~off ~ino ~rec_len ~name_len
   ~kind_code] for every record (live and free) and raises [Malformed]
   with the first structural error. *)
let walk_exn b ~init ~f =
  let len = Bytes.length b in
  let off = ref 0 and acc = ref init in
  while !off <> len do
    let o = !off in
    let rec_len = check_record b ~len o in
    acc :=
      f !acc ~off:o ~ino:(ino_at b o) ~rec_len ~name_len:(name_len_at b o)
        ~kind_code:(kind_code_at b o);
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
   and report no room or no such name. *)

(* In-place comparison of [name] against the [n]-byte name stored at
   [off] (whose name_len already matched [n]), from byte [i]; a top-level
   function, so comparing allocates no closure. *)
let rec name_at_equals b off name n i =
  i = n
  || Bytes.unsafe_get b (off + header_size + i) = String.unsafe_get name i
     && name_at_equals b off name n (i + 1)

let rec_len_ok ~len off rec_len =
  rec_len >= header_size && rec_len land 3 = 0 && off + rec_len <= len

let room b ~name =
  let len = Bytes.length b in
  let needed = record_size name in
  let rec go off =
    if off + header_size > len then -1
    else
      let rec_len = rec_len_at b off in
      if not (rec_len_ok ~len off rec_len) then -1
      else
        let used = if ino_at b off = 0 then 0 else header_size + pad4 (name_len_at b off) in
        if rec_len - used >= needed then off else go (off + rec_len)
  in
  go 0

let insert_at b off ~name ~ino ~kind_code =
  let rec_len = rec_len_at b off in
  if ino_at b off = 0 then write_record b ~off ~ino ~rec_len ~name ~kind_code
  else begin
    (* Shrink the live record to its needed size, put the new record in
       the freed tail. *)
    let used = header_size + pad4 (name_len_at b off) in
    Codec.set_u16 b (off + 4) used;
    write_record b ~off:(off + used) ~ino ~rec_len:(rec_len - used) ~name ~kind_code
  end

let insert b ~name ~ino ~kind_code =
  match room b ~name with
  | -1 -> false
  | off ->
      insert_at b off ~name ~ino ~kind_code;
      true

let locate b name =
  let len = Bytes.length b in
  let nlen = String.length name in
  let rec go off prev =
    if off + header_size > len then (-1, -1)
    else
      let rec_len = rec_len_at b off in
      if not (rec_len_ok ~len off rec_len) then (-1, -1)
      else if ino_at b off <> 0 && name_len_at b off = nlen && name_at_equals b off name nlen 0
      then (off, prev)
      else go (off + rec_len) off
  in
  go 0 (-1)

let remove_at b ~off ~prev =
  if prev >= 0 then
    (* Merge into the predecessor, ext2-style: records are contiguous, so
       the predecessor ends exactly at [off]. *)
    Codec.set_u16 b (prev + 4) (rec_len_at b prev + rec_len_at b off)
  else begin
    (* First record of the block: mark free. *)
    Codec.set_u32_int b off 0;
    Codec.set_u8 b (off + 6) 0;
    Codec.set_u8 b (off + 7) 0
  end

let remove b name =
  match locate b name with
  | -1, _ -> false
  | off, prev ->
      remove_at b ~off ~prev;
      true

let set_ino_at b off ino = Codec.set_u32_int b off ino

let set_entry_ino b name ino =
  match locate b name with
  | -1, _ -> false
  | off, _ ->
      set_ino_at b off ino;
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
  let len = Bytes.length b in
  let off = ref 0 in
  match
    while !off <> len do
      off := !off + check_record b ~len !off
    done
  with
  | () -> Ok ()
  | exception Malformed e -> Error e

(* One validating walk: every record is checked, in [walk_exn]'s order,
   and the first live record named [name] is remembered, so a malformed
   record after the match is still the verdict. *)
let find b name =
  let len = Bytes.length b in
  let nlen = String.length name in
  let off = ref 0 and hit = ref (-1) in
  match
    while !off <> len do
      let o = !off in
      let rec_len = check_record b ~len o in
      if
        !hit < 0 && ino_at b o <> 0 && name_len_at b o = nlen && name_at_equals b o name nlen 0
      then hit := o;
      off := o + rec_len
    done
  with
  | () ->
      let o = !hit in
      if o < 0 then None else Some (Ok { ino = ino_at b o; kind_code = kind_code_at b o; name })
  | exception Malformed e -> Some (Error e)
