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

let name_ok name =
  name = "." || name = ".."
  || (name <> "" && not (String.exists (fun c -> c = '/' || c = '\000') name))

(* Validated record walk: calls [f acc ~off ~ino ~rec_len ~name ~kind] for
   every record (live and free), or returns the first structural error. *)
let walk b ~init ~f =
  let len = Bytes.length b in
  let rec go off acc =
    if off = len then Ok acc
    else if off > len || off land 3 <> 0 then Error (Misaligned { offset = off })
    else if off + header_size > len then Error (Overrun { offset = off; rec_len = header_size })
    else
      let ino, rec_len, name_len, kind_code = read_header b off in
      if rec_len < header_size || rec_len land 3 <> 0 then
        Error (Bad_rec_len { offset = off; rec_len })
      else if off + rec_len > len then Error (Overrun { offset = off; rec_len })
      else if ino <> 0 && header_size + name_len > rec_len then
        Error (Bad_name_len { offset = off; name_len; rec_len })
      else
        let name = if ino = 0 then "" else Codec.get_string b ~pos:(off + header_size) ~len:name_len in
        if ino <> 0 && not (name_ok name) then Error (Bad_name { offset = off; name })
        else if ino <> 0 && Rae_vfs.Types.kind_of_code kind_code = None then
          Error (Bad_kind_code { offset = off; code = kind_code })
        else go (off + rec_len) (f acc ~off ~ino ~rec_len ~name ~kind_code)
  in
  go 0 init

let fold b ~init ~f =
  walk b ~init ~f:(fun acc ~off:_ ~ino ~rec_len:_ ~name ~kind_code ->
      if ino = 0 then acc else f acc { ino; kind_code; name })

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

let find b name =
  match list b with
  | Error e -> Some (Error e)
  | Ok entries -> (
      match List.find_opt (fun e -> String.equal e.name name) entries with
      | Some e -> Some (Ok e)
      | None -> None)

let find_nocheck b name =
  List.find_opt (fun e -> String.equal e.name name) (list_nocheck b)

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
  match fold b ~init:0 ~f:(fun n _ -> n + 1) with Ok n -> n | Error _ -> 0

let free_bytes b =
  let r =
    walk b ~init:0 ~f:(fun acc ~off:_ ~ino ~rec_len ~name ~kind_code:_ ->
        if ino = 0 then acc + rec_len else acc + (rec_len - record_size name))
  in
  match r with Ok n -> n | Error _ -> 0

let validate b = Result.map (fun _ -> ()) (walk b ~init:() ~f:(fun () ~off:_ ~ino:_ ~rec_len:_ ~name:_ ~kind_code:_ -> ()))
