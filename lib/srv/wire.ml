(* The serving-layer wire codec.  Encoding builds payloads into a Buffer;
   decoding runs a bounds-checked Rae_util.Codec cursor over the payload
   slice, so every malformed input surfaces as a typed decode failure. *)

open Rae_vfs
module Codec = Rae_util.Codec
module Checksum = Rae_util.Checksum

(* Version 2 is the only version spoken: it carries a correlation id on
   [Op_req] and the metrics/bundle observability frames.  Any other
   version in a frame header is rejected at decode. *)
let protocol_version = 2
let magic = 0x5253 (* "RS" *)
let header_bytes = 12
let max_payload = 4 * 1024 * 1024

type server_stats = {
  ws_sessions : int;
  ws_served : int;
  ws_busy : int;
  ws_recoveries : int;
  ws_degraded : bool;
}

type frame =
  | Hello of { version : int }
  | Hello_ok of { session : int; version : int }
  | Detach
  | Detach_ok
  | Ping of { token : int }
  | Pong of { token : int }
  | Stats_req
  | Stats_reply of server_stats
  | Op_req of { req : int; corr : int; op : Op.t }
      (** [corr] is the client-supplied correlation id (0 = none); v1
          frames carry no corr bytes and decode with [corr = 0]. *)
  | Op_reply of { req : int; outcome : Op.outcome }
  | Busy of { req : int; retry_after_ms : int }
  | Err of { errno : Errno.t; msg : string }
  | Note_degraded of { reason : string }
  | Note_recovered of { seq : int; trigger : string; wall_us : int }
  | Metrics_req
  | Metrics_reply of { text : string }  (** Prometheus text exposition *)
  | Bundles_req
  | Bundles_reply of { names : string list }  (** black-box bundle directory listing *)
  | Bundle_req of { name : string }
  | Bundle_reply of { name : string; data : string }  (** one bundle's JSON *)

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_length of int
  | Bad_checksum
  | Bad_payload of string

type decode_result = Frame of frame * int | Need_more | Fail of error

let pp_error ppf = function
  | Bad_magic -> Format.pp_print_string ppf "bad magic"
  | Bad_version v -> Format.fprintf ppf "unsupported protocol version %d" v
  | Bad_length n -> Format.fprintf ppf "implausible payload length %d" n
  | Bad_checksum -> Format.pp_print_string ppf "header/payload checksum mismatch"
  | Bad_payload msg -> Format.fprintf ppf "malformed payload: %s" msg

let pp_frame ppf = function
  | Hello { version } -> Format.fprintf ppf "hello(v%d)" version
  | Hello_ok { session; version } -> Format.fprintf ppf "hello_ok(session=%d, v%d)" session version
  | Detach -> Format.pp_print_string ppf "detach"
  | Detach_ok -> Format.pp_print_string ppf "detach_ok"
  | Ping { token } -> Format.fprintf ppf "ping(%d)" token
  | Pong { token } -> Format.fprintf ppf "pong(%d)" token
  | Stats_req -> Format.pp_print_string ppf "stats_req"
  | Stats_reply s ->
      Format.fprintf ppf "stats(sessions=%d served=%d busy=%d recoveries=%d degraded=%b)"
        s.ws_sessions s.ws_served s.ws_busy s.ws_recoveries s.ws_degraded
  | Op_req { req; corr; op } -> Format.fprintf ppf "op_req(#%d corr=%d %a)" req corr Op.pp op
  | Op_reply { req; outcome } -> Format.fprintf ppf "op_reply(#%d %a)" req Op.pp_outcome outcome
  | Busy { req; retry_after_ms } -> Format.fprintf ppf "busy(#%d retry_after=%dms)" req retry_after_ms
  | Err { errno; msg } -> Format.fprintf ppf "err(%a, %S)" Errno.pp errno msg
  | Note_degraded { reason } -> Format.fprintf ppf "note_degraded(%S)" reason
  | Note_recovered { seq; trigger; wall_us } ->
      Format.fprintf ppf "note_recovered(#%d %s %dus)" seq trigger wall_us
  | Metrics_req -> Format.pp_print_string ppf "metrics_req"
  | Metrics_reply { text } -> Format.fprintf ppf "metrics_reply(%d bytes)" (String.length text)
  | Bundles_req -> Format.pp_print_string ppf "bundles_req"
  | Bundles_reply { names } -> Format.fprintf ppf "bundles_reply(%d)" (List.length names)
  | Bundle_req { name } -> Format.fprintf ppf "bundle_req(%S)" name
  | Bundle_reply { name; data } ->
      Format.fprintf ppf "bundle_reply(%S, %d bytes)" name (String.length data)

let equal_frame a b =
  match (a, b) with
  | Op_reply x, Op_reply y ->
      x.req = y.req && Op.outcome_equal ~ignore_times:false x.outcome y.outcome
  | Op_reply _, _ | _, Op_reply _ -> false
  | a, b -> a = b

(* ---- frame type tags ---- *)

let tag_of_frame = function
  | Hello _ -> 1
  | Hello_ok _ -> 2
  | Detach -> 3
  | Detach_ok -> 4
  | Ping _ -> 5
  | Pong _ -> 6
  | Stats_req -> 7
  | Stats_reply _ -> 8
  | Op_req _ -> 9
  | Op_reply _ -> 10
  | Busy _ -> 11
  | Err _ -> 12
  | Note_degraded _ -> 13
  | Note_recovered _ -> 14
  | Metrics_req -> 15
  | Metrics_reply _ -> 16
  | Bundles_req -> 17
  | Bundles_reply _ -> 18
  | Bundle_req _ -> 19
  | Bundle_reply _ -> 20

(* ---- payload encoding ---- *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_u16 b v =
  add_u8 b v;
  add_u8 b (v lsr 8)

let add_u32 b v =
  add_u16 b (v land 0xffff);
  add_u16 b ((v lsr 16) land 0xffff)

let add_int b v = Buffer.add_int64_le b (Int64.of_int v)

let add_str16 b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_str32 b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_path b path =
  add_u16 b (List.length path);
  List.iter (fun c -> add_str16 b c) path

let add_flags b (f : Types.open_flags) =
  let bit c i = if c then 1 lsl i else 0 in
  add_u8 b
    (bit f.Types.rd 0 lor bit f.Types.wr 1 lor bit f.Types.creat 2 lor bit f.Types.excl 3
   lor bit f.Types.trunc 4 lor bit f.Types.append 5)

let add_op b op =
  let tag t = add_u8 b t in
  match op with
  | Op.Create (path, mode) ->
      tag 1;
      add_path b path;
      add_int b mode
  | Op.Mkdir (path, mode) ->
      tag 2;
      add_path b path;
      add_int b mode
  | Op.Unlink path ->
      tag 3;
      add_path b path
  | Op.Rmdir path ->
      tag 4;
      add_path b path
  | Op.Open (path, flags) ->
      tag 5;
      add_path b path;
      add_flags b flags
  | Op.Close fd ->
      tag 6;
      add_int b fd
  | Op.Pread (fd, off, len) ->
      tag 7;
      add_int b fd;
      add_int b off;
      add_int b len
  | Op.Pwrite (fd, off, data) ->
      tag 8;
      add_int b fd;
      add_int b off;
      add_str32 b data
  | Op.Lookup path ->
      tag 9;
      add_path b path
  | Op.Stat path ->
      tag 10;
      add_path b path
  | Op.Fstat fd ->
      tag 11;
      add_int b fd
  | Op.Readdir path ->
      tag 12;
      add_path b path
  | Op.Rename (src, dst) ->
      tag 13;
      add_path b src;
      add_path b dst
  | Op.Truncate (path, size) ->
      tag 14;
      add_path b path;
      add_int b size
  | Op.Link (src, dst) ->
      tag 15;
      add_path b src;
      add_path b dst
  | Op.Symlink (target, link) ->
      tag 16;
      add_str16 b target;
      add_path b link
  | Op.Readlink path ->
      tag 17;
      add_path b path
  | Op.Chmod (path, mode) ->
      tag 18;
      add_path b path;
      add_int b mode
  | Op.Fsync fd ->
      tag 19;
      add_int b fd
  | Op.Sync -> tag 20

let add_stat b (st : Types.stat) =
  add_int b st.Types.st_ino;
  add_u8 b (Types.kind_code st.Types.st_kind);
  add_int b st.Types.st_size;
  add_int b st.Types.st_nlink;
  add_int b st.Types.st_mode;
  Buffer.add_int64_le b st.Types.st_mtime;
  Buffer.add_int64_le b st.Types.st_ctime

let add_value b = function
  | Op.Unit -> add_u8 b 0
  | Op.Fd fd ->
      add_u8 b 1;
      add_int b fd
  | Op.Ino ino ->
      add_u8 b 2;
      add_int b ino
  | Op.Data s ->
      add_u8 b 3;
      add_str32 b s
  | Op.Len n ->
      add_u8 b 4;
      add_int b n
  | Op.St st ->
      add_u8 b 5;
      add_stat b st
  | Op.Names names ->
      add_u8 b 6;
      add_u32 b (List.length names);
      List.iter (fun n -> add_str16 b n) names

let add_outcome b = function
  | Ok v ->
      add_u8 b 0;
      add_value b v
  | Error e ->
      add_u8 b 1;
      add_u8 b (Errno.to_wire e)

let add_payload b = function
  | Hello { version } -> add_u16 b version
  | Hello_ok { session; version } ->
      add_u32 b session;
      add_u16 b version
  | Detach | Detach_ok | Stats_req -> ()
  | Ping { token } -> add_int b token
  | Pong { token } -> add_int b token
  | Stats_reply s ->
      add_u32 b s.ws_sessions;
      add_int b s.ws_served;
      add_int b s.ws_busy;
      add_u32 b s.ws_recoveries;
      add_u8 b (if s.ws_degraded then 1 else 0)
  | Op_req { req; corr; op } ->
      add_u32 b req;
      add_op b op;
      add_u32 b corr
  | Op_reply { req; outcome } ->
      add_u32 b req;
      add_outcome b outcome
  | Busy { req; retry_after_ms } ->
      add_u32 b req;
      add_u16 b retry_after_ms
  | Err { errno; msg } ->
      add_u8 b (Errno.to_wire errno);
      add_str16 b msg
  | Note_degraded { reason } -> add_str16 b reason
  | Note_recovered { seq; trigger; wall_us } ->
      add_u32 b seq;
      add_str16 b trigger;
      add_int b wall_us
  | Metrics_req | Bundles_req -> ()
  | Metrics_reply { text } -> add_str32 b text
  | Bundles_reply { names } ->
      add_u16 b (List.length names);
      List.iter (fun n -> add_str16 b n) names
  | Bundle_req { name } -> add_str16 b name
  | Bundle_reply { name; data } ->
      add_str16 b name;
      add_str32 b data

(* A reusable encoder: one payload buffer and one growable scratch area
   per connection, so the steady-state serving path allocates nothing per
   frame beyond what the transport itself copies out. *)
type encoder = { payload : Buffer.t; mutable scratch : Bytes.t }

let encoder () = { payload = Buffer.create 256; scratch = Bytes.create 256 }

let encode_into enc frame out =
  Buffer.clear enc.payload;
  add_payload enc.payload frame;
  let plen = Buffer.length enc.payload in
  let need = header_bytes + plen in
  if Bytes.length enc.scratch < need then
    enc.scratch <- Bytes.create (max need (2 * Bytes.length enc.scratch));
  let b = enc.scratch in
  Codec.set_u16 b 0 magic;
  Codec.set_u8 b 2 protocol_version;
  Codec.set_u8 b 3 (tag_of_frame frame);
  Codec.set_u32_int b 4 plen;
  Buffer.blit enc.payload 0 b header_bytes plen;
  let crc = Checksum.crc32c b ~pos:0 ~len:8 in
  let crc = Checksum.crc32c ~init:crc b ~pos:header_bytes ~len:plen in
  Codec.set_i32 b 8 crc;
  Buffer.add_subbytes out b 0 need

let encode frame =
  let out = Buffer.create 64 in
  encode_into (encoder ()) frame out;
  Buffer.contents out

(* ---- payload decoding ---- *)

let fail fmt = Format.kasprintf (fun s -> raise (Codec.Decode_error s)) fmt

let read_int c = Int64.to_int (Codec.Cursor.read_u64 c)

let read_str16 c =
  let len = Codec.Cursor.read_u16 c in
  Codec.Cursor.read_string c ~len

let read_str32 c =
  let len = Codec.Cursor.read_u32_int c in
  Codec.Cursor.read_string c ~len

(* Not List.init: the reader is effectful and must run strictly left to
   right, which List.init does not guarantee for long lists. *)
let read_list n f =
  let rec go acc i = if i >= n then List.rev acc else go (f () :: acc) (i + 1) in
  go [] 0

let read_path c =
  let n = Codec.Cursor.read_u16 c in
  read_list n (fun () ->
      let comp = read_str16 c in
      if not (Path.component_ok comp) then fail "bad path component %S" comp;
      comp)

let read_flags c =
  let bits = Codec.Cursor.read_u8 c in
  if bits land lnot 0x3f <> 0 then fail "unknown open-flag bits %#x" bits;
  let bit i = bits land (1 lsl i) <> 0 in
  {
    Types.rd = bit 0;
    wr = bit 1;
    creat = bit 2;
    excl = bit 3;
    trunc = bit 4;
    append = bit 5;
  }

let read_op c =
  match Codec.Cursor.read_u8 c with
  | 1 ->
      let path = read_path c in
      Op.Create (path, read_int c)
  | 2 ->
      let path = read_path c in
      Op.Mkdir (path, read_int c)
  | 3 -> Op.Unlink (read_path c)
  | 4 -> Op.Rmdir (read_path c)
  | 5 ->
      let path = read_path c in
      Op.Open (path, read_flags c)
  | 6 -> Op.Close (read_int c)
  | 7 ->
      let fd = read_int c in
      let off = read_int c in
      Op.Pread (fd, off, read_int c)
  | 8 ->
      let fd = read_int c in
      let off = read_int c in
      Op.Pwrite (fd, off, read_str32 c)
  | 9 -> Op.Lookup (read_path c)
  | 10 -> Op.Stat (read_path c)
  | 11 -> Op.Fstat (read_int c)
  | 12 -> Op.Readdir (read_path c)
  | 13 ->
      let src = read_path c in
      Op.Rename (src, read_path c)
  | 14 ->
      let path = read_path c in
      Op.Truncate (path, read_int c)
  | 15 ->
      let src = read_path c in
      Op.Link (src, read_path c)
  | 16 ->
      let target = read_str16 c in
      Op.Symlink (target, read_path c)
  | 17 -> Op.Readlink (read_path c)
  | 18 ->
      let path = read_path c in
      Op.Chmod (path, read_int c)
  | 19 -> Op.Fsync (read_int c)
  | 20 -> Op.Sync
  | t -> fail "unknown op tag %d" t

let read_stat c =
  let st_ino = read_int c in
  let st_kind =
    let code = Codec.Cursor.read_u8 c in
    match Types.kind_of_code code with Some k -> k | None -> fail "unknown stat kind %d" code
  in
  let st_size = read_int c in
  let st_nlink = read_int c in
  let st_mode = read_int c in
  let st_mtime = Codec.Cursor.read_u64 c in
  let st_ctime = Codec.Cursor.read_u64 c in
  { Types.st_ino; st_kind; st_size; st_nlink; st_mode; st_mtime; st_ctime }

let read_value c =
  match Codec.Cursor.read_u8 c with
  | 0 -> Op.Unit
  | 1 -> Op.Fd (read_int c)
  | 2 -> Op.Ino (read_int c)
  | 3 -> Op.Data (read_str32 c)
  | 4 -> Op.Len (read_int c)
  | 5 -> Op.St (read_stat c)
  | 6 ->
      let n = Codec.Cursor.read_u32_int c in
      if n > max_payload then fail "implausible name count %d" n;
      Op.Names
        (read_list n (fun () ->
             let name = read_str16 c in
             if not (Path.component_ok name) then fail "bad entry name %S" name;
             name))
  | t -> fail "unknown value tag %d" t

let read_outcome c : Op.outcome =
  match Codec.Cursor.read_u8 c with
  | 0 -> Ok (read_value c)
  | 1 -> Error (Errno.of_wire (Codec.Cursor.read_u8 c))
  | t -> fail "unknown outcome tag %d" t

let read_payload c tag =
  match tag with
  | 1 -> Hello { version = Codec.Cursor.read_u16 c }
  | 2 ->
      let session = Codec.Cursor.read_u32_int c in
      Hello_ok { session; version = Codec.Cursor.read_u16 c }
  | 3 -> Detach
  | 4 -> Detach_ok
  | 5 -> Ping { token = read_int c }
  | 6 -> Pong { token = read_int c }
  | 7 -> Stats_req
  | 8 ->
      let ws_sessions = Codec.Cursor.read_u32_int c in
      let ws_served = read_int c in
      let ws_busy = read_int c in
      let ws_recoveries = Codec.Cursor.read_u32_int c in
      let ws_degraded =
        match Codec.Cursor.read_u8 c with
        | 0 -> false
        | 1 -> true
        | v -> fail "bad degraded flag %d" v
      in
      Stats_reply { ws_sessions; ws_served; ws_busy; ws_recoveries; ws_degraded }
  | 9 ->
      let req = Codec.Cursor.read_u32_int c in
      let op = read_op c in
      let corr = Codec.Cursor.read_u32_int c in
      Op_req { req; corr; op }
  | 10 ->
      let req = Codec.Cursor.read_u32_int c in
      Op_reply { req; outcome = read_outcome c }
  | 11 ->
      let req = Codec.Cursor.read_u32_int c in
      Busy { req; retry_after_ms = Codec.Cursor.read_u16 c }
  | 12 ->
      let errno = Errno.of_wire (Codec.Cursor.read_u8 c) in
      Err { errno; msg = read_str16 c }
  | 13 -> Note_degraded { reason = read_str16 c }
  | 14 ->
      let seq = Codec.Cursor.read_u32_int c in
      let trigger = read_str16 c in
      Note_recovered { seq; trigger; wall_us = read_int c }
  | 15 -> Metrics_req
  | 16 -> Metrics_reply { text = read_str32 c }
  | 17 -> Bundles_req
  | 18 ->
      let n = Codec.Cursor.read_u16 c in
      Bundles_reply { names = read_list n (fun () -> read_str16 c) }
  | 19 -> Bundle_req { name = read_str16 c }
  | 20 ->
      let name = read_str16 c in
      Bundle_reply { name; data = read_str32 c }
  | t -> fail "unknown frame tag %d" t

let decode buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then Fail (Bad_length len)
  else if len >= 2 && Codec.get_u16 buf pos <> magic then Fail Bad_magic
  else if len < header_bytes then Need_more
  else
    let version = Codec.get_u8 buf (pos + 2) in
    if version <> protocol_version then Fail (Bad_version version)
    else
      let plen = Codec.get_u32_int buf (pos + 4) in
      if plen > max_payload then Fail (Bad_length plen)
      else if len < header_bytes + plen then Need_more
      else
        let crc = Checksum.crc32c buf ~pos ~len:8 in
        let crc = Checksum.crc32c ~init:crc buf ~pos:(pos + header_bytes) ~len:plen in
        if not (Int32.equal crc (Codec.get_i32 buf (pos + 8))) then Fail Bad_checksum
        else
          let tag = Codec.get_u8 buf (pos + 3) in
          let c = Codec.Cursor.of_bytes ~pos:(pos + header_bytes) buf in
          match read_payload c tag with
          | frame ->
              if Codec.Cursor.pos c <> pos + header_bytes + plen then
                Fail (Bad_payload "trailing bytes in payload")
              else Frame (frame, header_bytes + plen)
          | exception Codec.Decode_error msg ->
              (* A length field inside the payload may legally point past the
                 payload end but inside the caller's buffer; the cursor is
                 bounded by the buffer, so clamp that case to Bad_payload
                 rather than over-reading into the next frame. *)
              Fail (Bad_payload msg)

let decode_string s =
  let b = Bytes.of_string s in
  decode b ~pos:0 ~len:(Bytes.length b)
