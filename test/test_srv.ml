(* Tests for rae_srv: wire-codec round-trips and rejection of malformed
   input, session fd-virtualization and quotas, server scheduling
   (backpressure, fairness, idle eviction), and the serving layer's core
   promise — recovery transparency: concurrent clients riding over a
   masked base-filesystem bug observe only successful responses plus a
   recovery notification. *)

open Rae_vfs
module Wire = Rae_srv.Wire
module Session = Rae_srv.Session
module Server = Rae_srv.Server
module Loopback = Rae_srv.Loopback
module Client = Rae_srv.Srv_client
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Controller = Rae_core.Controller
module Disk = Rae_block.Disk
module Device = Rae_block.Device
module Layout = Rae_format.Layout

let p = Path.parse_exn

let ok_or name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" name (Errno.to_string e)

let arm ids =
  Bug_registry.arm ~rng:(Rae_util.Rng.create 7L) (List.filter_map Bug_registry.find ids)

let mk_ctl ?bugs ?policy ?bundle_dir ?events () =
  let disk =
    Disk.create ~latency:Disk.zero_latency ~block_size:Layout.block_size ~nblocks:2048 ()
  in
  let dev = Device.of_disk disk in
  ignore (Result.get_ok (Base.mkfs dev ~ninodes:256 ()));
  let base = Result.get_ok (Base.mount ?bugs dev) in
  Controller.make ?policy ?events ?bundle_dir ~run_id:"test-srv" ~device:dev base

(* A fresh directory path for bundle-emission tests; the controller's
   bundle writer creates it on first use. *)
let tmpdir () =
  let path = Filename.temp_file "rae-test-bundles" "" in
  Sys.remove path;
  path

(* ---- wire generators ---- *)

let gen_component =
  QCheck2.Gen.(
    map (fun s -> if Path.component_ok s then s else "c") (string_size (int_range 1 8)))

let gen_path = QCheck2.Gen.(list_size (int_bound 4) gen_component)
let gen_str = QCheck2.Gen.(string_size (int_bound 32))
let gen_small = QCheck2.Gen.int_bound 1_000_000

let gen_flags =
  QCheck2.Gen.(
    map
      (fun bits ->
        let bit i = bits land (1 lsl i) <> 0 in
        {
          Types.rd = bit 0;
          wr = bit 1;
          creat = bit 2;
          excl = bit 3;
          trunc = bit 4;
          append = bit 5;
        })
      (int_bound 63))

let gen_op =
  let open QCheck2.Gen in
  oneof
    [
      map2 (fun p m -> Op.Create (p, m)) gen_path (int_bound 0o777);
      map2 (fun p m -> Op.Mkdir (p, m)) gen_path (int_bound 0o777);
      map (fun p -> Op.Unlink p) gen_path;
      map (fun p -> Op.Rmdir p) gen_path;
      map2 (fun p f -> Op.Open (p, f)) gen_path gen_flags;
      map (fun fd -> Op.Close fd) gen_small;
      map3 (fun fd off len -> Op.Pread (fd, off, len)) gen_small gen_small gen_small;
      map3 (fun fd off data -> Op.Pwrite (fd, off, data)) gen_small gen_small gen_str;
      map (fun p -> Op.Lookup p) gen_path;
      map (fun p -> Op.Stat p) gen_path;
      map (fun fd -> Op.Fstat fd) gen_small;
      map (fun p -> Op.Readdir p) gen_path;
      map2 (fun a b -> Op.Rename (a, b)) gen_path gen_path;
      map2 (fun p n -> Op.Truncate (p, n)) gen_path gen_small;
      map2 (fun a b -> Op.Link (a, b)) gen_path gen_path;
      map2 (fun t p -> Op.Symlink (t, p)) gen_str gen_path;
      map (fun p -> Op.Readlink p) gen_path;
      map2 (fun p m -> Op.Chmod (p, m)) gen_path (int_bound 0o777);
      map (fun fd -> Op.Fsync fd) gen_small;
      return Op.Sync;
    ]

let gen_stat =
  let open QCheck2.Gen in
  let* st_ino = gen_small in
  let* st_kind = oneofl [ Types.Regular; Types.Directory; Types.Symlink ] in
  let* st_size = gen_small in
  let* st_nlink = int_bound 64 in
  let* st_mode = int_bound 0o777 in
  let* mt = gen_small in
  let+ ct = gen_small in
  {
    Types.st_ino;
    st_kind;
    st_size;
    st_nlink;
    st_mode;
    st_mtime = Int64.of_int mt;
    st_ctime = Int64.of_int ct;
  }

let gen_errno = QCheck2.Gen.oneofl Errno.all

let gen_value =
  let open QCheck2.Gen in
  oneof
    [
      return Op.Unit;
      map (fun fd -> Op.Fd fd) gen_small;
      map (fun i -> Op.Ino i) gen_small;
      map (fun s -> Op.Data s) gen_str;
      map (fun n -> Op.Len n) gen_small;
      map (fun st -> Op.St st) gen_stat;
      map (fun ns -> Op.Names ns) (list_size (int_bound 5) gen_component);
    ]

let gen_outcome =
  QCheck2.Gen.(
    oneof [ map (fun v -> Ok v) gen_value; map (fun e -> Error e) gen_errno ])

let gen_frame =
  let open QCheck2.Gen in
  oneof
    [
      map (fun version -> Wire.Hello { version }) (int_bound 0xffff);
      map2 (fun session version -> Wire.Hello_ok { session; version }) gen_small
        (int_bound 0xffff);
      return Wire.Detach;
      return Wire.Detach_ok;
      map (fun token -> Wire.Ping { token }) gen_small;
      map (fun token -> Wire.Pong { token }) gen_small;
      return Wire.Stats_req;
      ( let* ws_sessions = int_bound 1000 in
        let* ws_served = gen_small in
        let* ws_busy = gen_small in
        let* ws_recoveries = int_bound 1000 in
        let+ ws_degraded = bool in
        Wire.Stats_reply { ws_sessions; ws_served; ws_busy; ws_recoveries; ws_degraded } );
      map3 (fun req corr op -> Wire.Op_req { req; corr; op }) gen_small gen_small gen_op;
      map2 (fun req outcome -> Wire.Op_reply { req; outcome }) gen_small gen_outcome;
      map2
        (fun req retry_after_ms -> Wire.Busy { req; retry_after_ms })
        gen_small (int_bound 0xffff);
      map2 (fun errno msg -> Wire.Err { errno; msg }) gen_errno gen_str;
      map (fun reason -> Wire.Note_degraded { reason }) gen_str;
      ( let* seq = int_bound 1000 in
        let* trigger = gen_str in
        let+ wall_us = gen_small in
        Wire.Note_recovered { seq; trigger; wall_us } );
      return Wire.Metrics_req;
      map (fun text -> Wire.Metrics_reply { text }) gen_str;
      return Wire.Bundles_req;
      map (fun names -> Wire.Bundles_reply { names }) (list_size (int_bound 5) gen_str);
      map (fun name -> Wire.Bundle_req { name }) gen_str;
      map2 (fun name data -> Wire.Bundle_reply { name; data }) gen_str gen_str;
    ]

let frame_to_string = Format.asprintf "%a" Wire.pp_frame

(* ---- the Buffer-based encoder the in-place one replaced ---- *)

(* Kept verbatim as the reference: every frame the in-place encoder
   writes must equal its output byte for byte. *)
module Reference = struct
  open Wire
  module Codec = Rae_util.Codec
  module Checksum = Rae_util.Checksum

  let magic = 0x5253

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
end

(* ---- wire properties ---- *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"encode/decode roundtrip for every frame" ~count:800
    ~print:frame_to_string gen_frame (fun f ->
      let s = Wire.encode f in
      match Wire.decode_string s with
      | Wire.Frame (g, n) -> Wire.equal_frame f g && n = String.length s
      | Wire.Need_more | Wire.Fail _ -> false)

let prop_encode_into_matches_encode =
  (* The server's zero-allocation encoder must produce byte-identical
     output to the plain encoder.  One encoder instance is reused across
     the whole list so the scratch buffer's grow-and-reuse path is
     exercised by the size spread of consecutive frames. *)
  QCheck2.Test.make ~name:"encode_into = encode, one encoder reused" ~count:200
    ~print:(fun fs -> String.concat " | " (List.map frame_to_string fs))
    QCheck2.Gen.(list_size (int_range 1 8) gen_frame)
    (fun frames ->
      let enc = Wire.encoder () in
      let out = Buffer.create 256 in
      List.for_all
        (fun f ->
          Buffer.clear out;
          Wire.encode_into enc f out;
          Buffer.contents out = Wire.encode f)
        frames)

(* Frames whose payload is over 64 KiB: a read reply, a write request
   and the two bulk observability replies. *)
let gen_big_frame =
  let open QCheck2.Gen in
  let* n = int_range 65_537 200_000 in
  let* k = int_range 1 255 in
  let big = String.init n (fun i -> Char.chr ((i * k) lsr 3 land 0xff)) in
  oneofl
    [
      Wire.Op_reply { req = k; outcome = Ok (Op.Data big) };
      Wire.Op_req { req = k; corr = n; op = Op.Pwrite (3, n, big) };
      Wire.Bundle_reply { name = "b"; data = big };
      Wire.Metrics_reply { text = big };
    ]

let prop_encoder_matches_reference =
  (* Several frames appended to one fresh encoder (which starts at 256
     bytes, so big frames grow it), then the same frames again through
     [encode_into] on the grown encoder and through [encode]. *)
  QCheck2.Test.make ~name:"in-place encoder = reference encoder" ~count:200
    ~print:(fun fs -> String.concat " | " (List.map frame_to_string fs))
    QCheck2.Gen.(list_size (int_range 1 8) (frequency [ (8, gen_frame); (1, gen_big_frame) ]))
    (fun frames ->
      let expected = String.concat "" (List.map Reference.encode frames) in
      let e = Wire.encoder () in
      List.iter (Wire.append e) frames;
      let appended = ref "" in
      Wire.drain e (fun buf off len -> appended := Bytes.sub_string buf off len);
      let out = Buffer.create 16 in
      List.iter (fun f -> Wire.encode_into e f out) frames;
      !appended = expected
      && Wire.pending e = 0
      && Buffer.contents out = expected
      && String.concat "" (List.map Wire.encode frames) = expected)

let prop_truncated =
  QCheck2.Test.make ~name:"every strict prefix decodes to Need_more" ~count:200
    ~print:frame_to_string gen_frame (fun f ->
      let s = Wire.encode f in
      let all = ref true in
      for cut = 0 to String.length s - 1 do
        match Wire.decode_string (String.sub s 0 cut) with
        | Wire.Need_more -> ()
        | Wire.Frame _ | Wire.Fail _ -> all := false
      done;
      !all)

let prop_corrupted =
  QCheck2.Test.make ~name:"single-byte corruption never yields a frame" ~count:800
    ~print:(fun (f, (at, flip)) ->
      Printf.sprintf "%s, byte %d xor %#x" (frame_to_string f) at flip)
    QCheck2.Gen.(pair gen_frame (pair (int_bound 100_000) (int_range 1 255)))
    (fun (f, (at, flip)) ->
      let s = Wire.encode f in
      let b = Bytes.of_string s in
      let at = at mod Bytes.length b in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor flip));
      (* The checksum (or an up-front header check) must catch any flip; a
         flip in the length field may legally leave the decoder waiting for
         more bytes, but a successfully decoded frame is a codec bug. *)
      match Wire.decode b ~pos:0 ~len:(Bytes.length b) with
      | Wire.Frame _ -> false
      | Wire.Need_more | Wire.Fail _ -> true)

let prop_chunked =
  QCheck2.Test.make ~name:"chunked stream reassembles to the same frames" ~count:200
    ~print:(fun (fs, chunk) ->
      Printf.sprintf "%d frames, %d-byte chunks" (List.length fs) chunk)
    QCheck2.Gen.(pair (list_size (int_range 1 6) gen_frame) (int_range 1 13))
    (fun (frames, chunk) ->
      let s = String.concat "" (List.map (fun f -> Wire.encode f) frames) in
      let got = ref [] in
      let backlog = ref "" in
      let pos = ref 0 in
      let corrupt = ref false in
      while !pos < String.length s do
        let n = min chunk (String.length s - !pos) in
        backlog := !backlog ^ String.sub s !pos n;
        pos := !pos + n;
        let continue = ref true in
        while !continue do
          match Wire.decode_string !backlog with
          | Wire.Frame (f, used) ->
              got := f :: !got;
              backlog := String.sub !backlog used (String.length !backlog - used)
          | Wire.Need_more -> continue := false
          | Wire.Fail _ ->
              corrupt := true;
              continue := false
        done
      done;
      let got = List.rev !got in
      (not !corrupt)
      && !backlog = ""
      && List.length got = List.length frames
      && List.for_all2 Wire.equal_frame frames got)

let test_errno_wire_total () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Errno.to_string e))
        true
        (Errno.equal e (Errno.of_wire (Errno.to_wire e))))
    Errno.all;
  Alcotest.(check int) "codes injective" (List.length Errno.all)
    (List.length (List.sort_uniq compare (List.map Errno.to_wire Errno.all)));
  (* Every byte decodes to *something*; codes no constructor claims are EIO. *)
  let claimed = List.map Errno.to_wire Errno.all in
  for code = 0 to 255 do
    let e = Errno.of_wire code in
    if not (List.mem code claimed) then
      Alcotest.(check bool)
        (Printf.sprintf "unclaimed code %d is EIO" code)
        true (Errno.equal e Errno.EIO)
  done

let test_decode_garbage () =
  (* Not crafted frames, just noise: must never raise. *)
  let rng = Rae_util.Rng.create 3L in
  for _ = 1 to 200 do
    let len = Rae_util.Rng.int rng 64 in
    let b = Bytes.init len (fun _ -> Char.chr (Rae_util.Rng.int rng 256)) in
    match Wire.decode b ~pos:0 ~len with
    | Wire.Frame _ | Wire.Need_more | Wire.Fail _ -> ()
  done

(* Every range that reaches past either end of the buffer, including the
   ones whose [pos + len] wraps, is refused as a length, never raised:
   over a whole frame, a truncated one and an empty buffer. *)
let test_decode_out_of_range () =
  let frame = Wire.encode (Wire.Op_req { req = 1; corr = 0; op = Op.Sync }) in
  List.iter
    (fun s ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let edges = [ min_int; min_int + 1; -n - 1; -1; 0; 1; n - 1; n; n + 1; max_int - 1; max_int ] in
      List.iter
        (fun pos ->
          List.iter
            (fun len ->
              if not (pos >= 0 && len >= 0 && pos <= n && len <= n - pos) then
                match Wire.decode b ~pos ~len with
                | Wire.Fail (Wire.Bad_length l) when l = len -> ()
                | Wire.Frame _ | Wire.Need_more | Wire.Fail _ ->
                    Alcotest.failf "%d-byte buffer, pos %d len %d: not Bad_length" n pos len
                | exception e ->
                    Alcotest.failf "%d-byte buffer, pos %d len %d raised %s" n pos len
                      (Printexc.to_string e))
            edges)
        edges)
    [ frame; String.sub frame 0 (String.length frame - 1); "" ]

(* ---- protocol versioning: v2 carries the corr id, v1 is refused ---- *)

(* [frame] encoded, then re-stamped with header version [v] and a
   matching checksum: well-formed in every respect but the version. *)
let with_header_version v frame =
  let b = Bytes.of_string (Wire.encode frame) in
  Bytes.set_uint8 b 2 v;
  let crc = Rae_util.Checksum.crc32c b ~pos:0 ~len:8 in
  let crc =
    Rae_util.Checksum.crc32c ~init:crc b ~pos:Wire.header_bytes
      ~len:(Bytes.length b - Wire.header_bytes)
  in
  Rae_util.Codec.set_i32 b 8 crc;
  Bytes.to_string b

let test_wire_corr_versioning () =
  let f = Wire.Op_req { req = 7; corr = 0xbeef; op = Op.Sync } in
  (* v2 round-trips the correlation id. *)
  (match Wire.decode_string (Wire.encode f) with
  | Wire.Frame (Wire.Op_req { req = 7; corr = 0xbeef; op = Op.Sync }, _) -> ()
  | _ -> Alcotest.fail "v2 must round-trip corr");
  (* v2 is the only version spoken: a v1 header is rejected before the
     payload is read, never mis-parsed. *)
  match Wire.decode_string (with_header_version 1 f) with
  | Wire.Fail (Wire.Bad_version 1) -> ()
  | _ -> Alcotest.fail "a v1 header must decode to Bad_version 1"

(* ---- session unit tests ---- *)

let test_session_translate_ebadf () =
  let s = Session.create ~id:1 Session.default_config in
  List.iter
    (fun op ->
      match Session.translate s op with
      | Error Errno.EBADF -> ()
      | Ok _ | Error _ -> Alcotest.failf "%s: expected EBADF" (Op.to_string op))
    [ Op.Close 3; Op.Pread (3, 0, 1); Op.Pwrite (3, 0, "x"); Op.Fstat 3; Op.Fsync 3 ]

let test_session_fd_binding () =
  let s = Session.create ~id:1 Session.default_config in
  let v0 = Session.bind_fd s ~real:40 in
  let v1 = Session.bind_fd s ~real:41 in
  Alcotest.(check bool) "distinct vfds" true (v0 <> v1);
  (match Session.translate s (Op.Fstat v1) with
  | Ok (Op.Fstat 41) -> ()
  | _ -> Alcotest.fail "translate should rewrite to the controller fd");
  Session.release_fd s ~vfd:v0;
  (match Session.translate s (Op.Fstat v0) with
  | Error Errno.EBADF -> ()
  | _ -> Alcotest.fail "released vfd must be EBADF");
  Alcotest.(check int) "one fd left" 1 (Session.fd_count s)

let test_session_fd_quota () =
  let s = Session.create ~id:1 { Session.default_config with Session.max_fds = 2 } in
  ignore (Session.bind_fd s ~real:10);
  ignore (Session.bind_fd s ~real:11);
  match Session.translate s (Op.Open ([ "x" ], Types.flags_ro)) with
  | Error Errno.EMFILE -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected EMFILE at the descriptor quota"

let test_session_inflight_quota () =
  let s = Session.create ~id:1 { Session.default_config with Session.max_inflight = 2 } in
  Alcotest.(check bool) "first queued" true (Session.enqueue s ~req:1 ~corr:0 Op.Sync = `Queued);
  Alcotest.(check bool) "second queued" true (Session.enqueue s ~req:2 ~corr:0 Op.Sync = `Queued);
  Alcotest.(check bool) "third refused" true (Session.enqueue s ~req:3 ~corr:0 Op.Sync = `Busy);
  ignore (Session.dequeue s);
  Alcotest.(check bool) "slot freed" true (Session.enqueue s ~req:4 ~corr:0 Op.Sync = `Queued)

(* ---- raw-frame server tests ---- *)

let decode_all name s =
  let b = Bytes.of_string s in
  let rec go pos acc =
    if pos >= Bytes.length b then List.rev acc
    else
      match Wire.decode b ~pos ~len:(Bytes.length b - pos) with
      | Wire.Frame (f, n) -> go (pos + n) (f :: acc)
      | Wire.Need_more -> List.rev acc
      | Wire.Fail e -> Alcotest.failf "%s: stream corrupt: %a" name Wire.pp_error e
  in
  go 0 []

let attach server =
  let cid = Server.open_conn server in
  Server.feed server cid (Wire.encode (Wire.Hello { version = Wire.protocol_version }));
  (match decode_all "hello" (Server.output server cid) with
  | [ Wire.Hello_ok _ ] -> ()
  | fs -> Alcotest.failf "expected hello_ok, got %d frame(s)" (List.length fs));
  cid

let test_server_bad_hello () =
  let server = Server.create (mk_ctl ()) in
  List.iter
    (fun version ->
      let cid = Server.open_conn server in
      Server.feed server cid (Wire.encode (Wire.Hello { version }));
      (match decode_all "bad hello" (Server.output server cid) with
      | [ Wire.Err { errno = Errno.EPROTO; _ } ] -> ()
      | _ -> Alcotest.failf "hello v%d: expected a protocol Err frame" version);
      Alcotest.(check bool)
        (Printf.sprintf "hello v%d: connection dropped" version)
        true (Server.conn_closed server cid))
    [ 99; 1 ];
  Alcotest.(check bool) "counted" true ((Server.stats server).Server.protocol_errors >= 2)

let test_server_op_before_hello () =
  let server = Server.create (mk_ctl ()) in
  let cid = Server.open_conn server in
  Server.feed server cid (Wire.encode (Wire.Op_req { req = 1; corr = 0; op = Op.Sync }));
  Alcotest.(check bool) "connection dropped" true (Server.conn_closed server cid)

let test_server_corrupt_stream_drops () =
  let server = Server.create (mk_ctl ()) in
  let cid = attach server in
  Server.feed server cid "\xff\xff garbage that is not a frame";
  Alcotest.(check bool) "connection dropped" true (Server.conn_closed server cid)

let test_server_backpressure () =
  let server = Server.create (mk_ctl ()) in
  let cid = attach server in
  let inflight = Server.default_config.Server.session.Session.max_inflight in
  let burst = inflight + 4 in
  let blob = Buffer.create 1024 in
  for r = 1 to burst do
    Buffer.add_string blob (Wire.encode (Wire.Op_req { req = r; corr = 0; op = Op.Sync }))
  done;
  Server.feed server cid (Buffer.contents blob);
  while Server.step server > 0 do
    ()
  done;
  let frames = decode_all "burst" (Server.output server cid) in
  let replies, busies =
    List.fold_left
      (fun (r, b) f ->
        match f with
        | Wire.Op_reply { outcome = Ok _; _ } -> (r + 1, b)
        | Wire.Op_reply { outcome = Error e; _ } ->
            Alcotest.failf "sync failed: %s" (Errno.to_string e)
        | Wire.Busy { retry_after_ms; _ } ->
            Alcotest.(check bool) "retry hint positive" true (retry_after_ms > 0);
            (r, b + 1)
        | f -> Alcotest.failf "unexpected frame %s" (frame_to_string f))
      (0, 0) frames
  in
  Alcotest.(check int) "queued requests all served" inflight replies;
  Alcotest.(check int) "overflow refused with Busy" (burst - inflight) busies;
  Alcotest.(check int) "busy counted" (burst - inflight) (Server.stats server).Server.busy

let test_server_fairness () =
  let server = Server.create (mk_ctl ()) in
  let flooder = attach server in
  let light = attach server in
  let quota = Server.default_config.Server.session.Session.max_ops_per_turn in
  let blob = Buffer.create 1024 in
  for r = 1 to 2 * quota do
    Buffer.add_string blob (Wire.encode (Wire.Op_req { req = r; corr = 0; op = Op.Sync }))
  done;
  Server.feed server flooder (Buffer.contents blob);
  Server.feed server light (Wire.encode (Wire.Op_req { req = 1; corr = 0; op = Op.Sync }));
  (* One turn: round-robin dispatch must reach the light session despite the
     flood, and the flooder must not exceed its per-turn quota. *)
  let served = Server.step server in
  Alcotest.(check int) "flooder capped at quota, light served" (quota + 1) served;
  match decode_all "light" (Server.output server light) with
  | [ Wire.Op_reply { req = 1; outcome = Ok _ } ] -> ()
  | fs -> Alcotest.failf "light session starved (%d frame(s))" (List.length fs)

let test_server_idle_eviction () =
  let config = { Server.default_config with Server.idle_timeout = 2 } in
  let server = Server.create ~config (mk_ctl ()) in
  let cid = attach server in
  for _ = 1 to 5 do
    ignore (Server.step server)
  done;
  Alcotest.(check int) "evicted" 1 (Server.stats server).Server.evicted;
  Alcotest.(check bool) "connection dropped" true (Server.conn_closed server cid);
  Alcotest.(check int) "no sessions left" 0 (Server.stats server).Server.sessions

(* ---- loopback integration: recovery transparency ---- *)

(* The ISSUE's acceptance test: four concurrent sessions, a deterministic
   panic bug armed in the base, one client trips it mid-run.  Every client
   must observe only successful responses — the shadow's answers — plus
   exactly one Note_recovered push; nobody sees an error or a dropped
   connection. *)
let test_recovery_transparency () =
  let ctl = mk_ctl ~bugs:(arm [ "crafted-name-panic" ]) () in
  let server = Server.create ctl in
  let hub = Loopback.create server in
  let clients =
    Array.init 4 (fun i ->
        match Client.connect ~dial:(Loopback.dial hub) () with
        | Ok c -> c
        | Error m -> Alcotest.failf "client %d: %s" i m)
  in
  let rounds = 8 in
  for k = 0 to rounds - 1 do
    Array.iteri
      (fun i c ->
        (* Client 0 trips the armed bug halfway through: creating a name
           containing the trigger component panics the base filesystem. *)
        if i = 0 && k = rounds / 2 then
          ignore (ok_or "trigger create" (Client.create c (p "/pwn") ~mode:0o644));
        let path = p (Printf.sprintf "/f%d_%d" i k) in
        ignore (ok_or "create" (Client.create c path ~mode:0o644));
        let fd = ok_or "open" (Client.openf c path Types.flags_rw) in
        let wrote = ok_or "pwrite" (Client.pwrite c fd ~off:0 (String.make 64 'z')) in
        Alcotest.(check int) "full write" 64 wrote;
        let data = ok_or "pread" (Client.pread c fd ~off:0 ~len:64) in
        Alcotest.(check string) "read back" (String.make 64 'z') data;
        let st = ok_or "fstat" (Client.fstat c fd) in
        Alcotest.(check int) "size" 64 st.Types.st_size;
        ok_or "close" (Client.close c fd))
      clients
  done;
  Alcotest.(check int) "exactly one recovery" 1 (Controller.stats ctl).Controller.recoveries;
  Alcotest.(check (option Alcotest.string)) "never degraded" None (Controller.degraded ctl);
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "client %d saw one recovery notice" i)
        1 (Client.recovered_seen c);
      Alcotest.(check (option Alcotest.string))
        (Printf.sprintf "client %d not degraded" i)
        None (Client.degraded c);
      Client.detach c)
    clients

(* ---- loopback integration: reconnect and fd re-validation ---- *)

let test_reconnect_revalidates_fds () =
  let ctl = mk_ctl () in
  let config = { Server.default_config with Server.idle_timeout = 2 } in
  let server = Server.create ~config ctl in
  let hub = Loopback.create server in
  let c =
    match Client.connect ~dial:(Loopback.dial hub) () with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  ignore (ok_or "create keep" (Client.create c (p "/keep") ~mode:0o644));
  ignore (ok_or "create gone" (Client.create c (p "/gone") ~mode:0o644));
  let fd_keep = ok_or "open keep" (Client.openf c (p "/keep") Types.flags_rw) in
  let fd_gone = ok_or "open gone" (Client.openf c (p "/gone") Types.flags_rw) in
  ignore (ok_or "seed keep" (Client.pwrite c fd_keep ~off:0 "payload"));
  (* The server evicts the idle session (releasing its controller fds), and
     another actor removes /gone behind the client's back. *)
  for _ = 1 to 5 do
    ignore (Loopback.pump hub)
  done;
  Alcotest.(check int) "session evicted" 1 (Server.stats server).Server.evicted;
  ignore (ok_or "unlink behind the back" (Controller.unlink ctl (p "/gone")));
  (* Next operation detects the lost connection, re-dials, re-attaches and
     re-validates: /keep resolves again (same client-visible fd), /gone is
     stale and answers EBADF locally. *)
  let data = ok_or "pread after reconnect" (Client.pread c fd_keep ~off:0 ~len:7) in
  Alcotest.(check string) "content survived reconnect" "payload" data;
  Alcotest.(check int) "one reconnect" 1 (Client.reconnects c);
  Alcotest.(check int) "one stale fd" 1 (Client.stale_fds c);
  (match Client.pread c fd_gone ~off:0 ~len:1 with
  | Error Errno.EBADF -> ()
  | Ok _ | Error _ -> Alcotest.fail "stale fd must answer EBADF");
  ok_or "closing a stale fd succeeds" (Client.close c fd_gone);
  (* The freed slot is usable again. *)
  let fd2 = ok_or "reopen" (Client.openf c (p "/keep") Types.flags_ro) in
  Alcotest.(check int) "lowest-free fd reused" fd_gone fd2;
  Client.detach c

let test_client_detach_then_eio () =
  let server = Server.create (mk_ctl ()) in
  let hub = Loopback.create server in
  let c =
    match Client.connect ~dial:(Loopback.dial hub) () with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  Alcotest.(check bool) "ping" true (Client.ping c);
  Client.detach c;
  match Client.lookup c (p "/") with
  | Error Errno.EIO -> ()
  | Ok _ | Error _ -> Alcotest.fail "operations after detach must be EIO"

(* ---- observability verbs: metrics, bundle listing, bundle fetch ---- *)

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_obs_verbs () =
  let dir = tmpdir () in
  let ctl =
    mk_ctl ~bugs:(arm [ "crafted-name-panic" ]) ~bundle_dir:dir
      ~events:(Rae_obs.Events.create ~capacity:128 ()) ()
  in
  let server = Server.create ctl in
  Server.set_metrics_source server (fun () -> "# HELP x_total test\nx_total 1\n");
  let hub = Loopback.create server in
  let c =
    match Client.connect ~dial:(Loopback.dial hub) () with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  (match Client.metrics c with
  | Ok text -> Alcotest.(check bool) "prometheus text served" true (has_sub text "x_total 1")
  | Error e -> Alcotest.failf "metrics: %s" (Errno.to_string e));
  (match Client.bundles c with
  | Ok [] -> ()
  | Ok l -> Alcotest.failf "expected no bundles yet, got %d" (List.length l)
  | Error e -> Alcotest.failf "bundles: %s" (Errno.to_string e));
  (match Client.fetch_bundle c "no-such-bundle.json" with
  | Error Errno.ENOENT -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown bundle must answer ENOENT");
  Alcotest.(check bool) "connection survives the ENOENT" true (Client.ping c);
  (* Trip the armed bug; the recovery bundle becomes fetchable over the
     same protocol, and what arrives validates against the schema. *)
  Client.set_corr c 77;
  ignore (ok_or "trigger" (Client.create c (p "/pwn") ~mode:0o644));
  (match Client.bundles c with
  | Ok [ name ] -> (
      match Client.fetch_bundle c name with
      | Error e -> Alcotest.failf "fetch_bundle: %s" (Errno.to_string e)
      | Ok data -> (
          match Rae_obs.Jsonx.parse data with
          | Error m -> Alcotest.failf "served bundle is not JSON: %s" m
          | Ok j -> (
              match Rae_obs.Blackbox.check j with
              | Ok s ->
                  Alcotest.(check bool) "bundle names a session" true
                    (s.Rae_obs.Blackbox.s_sessions >= 1)
              | Error vs ->
                  Alcotest.failf "served bundle invalid: %s" (String.concat "; " vs))))
  | Ok l -> Alcotest.failf "expected one bundle, got %d" (List.length l)
  | Error e -> Alcotest.failf "bundles: %s" (Errno.to_string e));
  Client.detach c

(* rfsbench reads these names from the daemon's Prometheus text and takes
   a missing one as 0, so a dropped registration would zero its ledger
   rows without an error.  The stack is built as rfsd builds it. *)
let test_rfsbench_metric_names () =
  let policy = { Controller.default_policy with Controller.ckpt_enabled = true } in
  let ctl = mk_ctl ~policy ~events:(Rae_obs.Events.create ~capacity:128 ()) () in
  let reg = Rae_obs.Metrics.create () in
  Controller.register_obs reg ctl;
  Server.register_obs reg (Server.create ctl);
  let lines = String.split_on_char '\n' (Rae_obs.Metrics.to_prometheus reg) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " sampled") true
        (List.exists (String.starts_with ~prefix:(name ^ " ")) lines))
    [
      "rae_srv_ops_total"; "rae_srv_batches_total"; "rae_srv_busy_total";
      "rae_srv_frames_in_total"; "rae_srv_frames_out_total"; "base_commits_total";
      "bcache_hits_total"; "bcache_misses_total"; "bcache_evictions_total"; "icache_hits_total";
      "icache_misses_total"; "dcache_hits_total"; "dcache_misses_total"; "rae_ckpt_cuts_total";
      "rae_ckpt_folds_total"; "rae_ckpt_folded_ops_total"; "rae_ckpt_seeded_total";
      "rae_recoveries_total";
    ]

(* ---- the acceptance scenario: a 4-session recovery bundle names every
   impacted session via its client correlation id ---- *)

let test_bundle_names_impacted_sessions () =
  let dir = tmpdir () in
  let ctl =
    mk_ctl ~bugs:(arm [ "crafted-name-panic" ]) ~bundle_dir:dir
      ~events:(Rae_obs.Events.create ~capacity:256 ()) ()
  in
  let server = Server.create ctl in
  let attach_sid () =
    let cid = Server.open_conn server in
    Server.feed server cid (Wire.encode (Wire.Hello { version = Wire.protocol_version }));
    match decode_all "hello" (Server.output server cid) with
    | [ Wire.Hello_ok { session; _ } ] -> (cid, session)
    | fs -> Alcotest.failf "expected hello_ok, got %d frame(s)" (List.length fs)
  in
  let conns = Array.init 4 (fun _ -> attach_sid ()) in
  let corr_of i = 100 + i in
  (* Sessions 1-3 queue two requests each; session 0 queues the trigger.
     Round-robin dispatch serves one request per session per pass, so when
     the trigger dispatches (first pass) every other session still has at
     least one request pending — the bundle emitted inside that dispatch
     must name all four sessions and their corr ids. *)
  Array.iteri
    (fun i (cid, _) ->
      if i = 0 then
        Server.feed server cid
          (Wire.encode (Wire.Op_req { req = 1; corr = corr_of 0; op = Op.Create (p "/pwn", 0o644) }))
      else begin
        Server.feed server cid
          (Wire.encode
             (Wire.Op_req
                { req = 1; corr = corr_of i; op = Op.Create (p (Printf.sprintf "/f%d" i), 0o644) }));
        Server.feed server cid
          (Wire.encode (Wire.Op_req { req = 2; corr = corr_of i; op = Op.Stat (p "/") }))
      end)
    conns;
  while Server.step server > 0 do
    ()
  done;
  Alcotest.(check int) "one recovery" 1 (Controller.stats ctl).Controller.recoveries;
  let path =
    match Controller.bundles ctl with
    | [ path ] -> path
    | l -> Alcotest.failf "expected one bundle, got %d" (List.length l)
  in
  let module J = Rae_obs.Jsonx in
  let json =
    match Rae_obs.Blackbox.read_file path with
    | Error m -> Alcotest.failf "read bundle: %s" m
    | Ok data -> (
        match J.parse data with
        | Ok j -> j
        | Error m -> Alcotest.failf "parse bundle: %s" m)
  in
  (match Rae_obs.Blackbox.check ~path json with
  | Ok _ -> ()
  | Error vs -> Alcotest.failf "bundle invalid: %s" (String.concat "; " vs));
  let sessions =
    match Option.bind (J.member "impacted_sessions" json) J.to_list_opt with
    | Some l -> l
    | None -> Alcotest.fail "bundle lacks impacted_sessions"
  in
  Alcotest.(check int) "all four sessions named" 4 (List.length sessions);
  let entry_for sid =
    List.find_opt (fun s -> Option.bind (J.member "session" s) J.to_int_opt = Some sid) sessions
  in
  Array.iteri
    (fun i (_, sid) ->
      match entry_for sid with
      | None -> Alcotest.failf "session %d missing from bundle" sid
      | Some s ->
          let corrs =
            match Option.bind (J.member "corr_ids" s) J.to_list_opt with
            | Some l -> List.filter_map J.to_int_opt l
            | None -> []
          in
          Alcotest.(check bool)
            (Printf.sprintf "session %d tagged with corr %d" sid (corr_of i))
            true
            (List.mem (corr_of i) corrs))
    conns;
  (* The request that tripped the recovery shows as in flight for its
     session: it was mid-dispatch when the bundle was cut. *)
  (match entry_for (snd conns.(0)) with
  | None -> Alcotest.fail "triggering session missing"
  | Some s ->
      let inflight =
        match Option.bind (J.member "inflight" s) J.to_list_opt with Some l -> l | None -> []
      in
      Alcotest.(check bool) "triggering request in flight" true
        (List.exists (fun e -> Option.bind (J.member "req" e) J.to_int_opt = Some 1) inflight));
  (* Recovery transparency still holds: every queued request is answered
     with a successful Op_reply despite the mid-batch recovery. *)
  Array.iteri
    (fun i (cid, _) ->
      let replies =
        List.filter_map
          (function Wire.Op_reply { outcome; _ } -> Some outcome | _ -> None)
          (decode_all "replies" (Server.output server cid))
      in
      Alcotest.(check int)
        (Printf.sprintf "client %d reply count" i)
        (if i = 0 then 1 else 2)
        (List.length replies);
      List.iter
        (function
          | Ok _ -> ()
          | Error e -> Alcotest.failf "client %d saw %s" i (Errno.to_string e))
        replies)
    conns

(* ---- the reply path: drain, allocation, recovery notes ---- *)

let request req op = Wire.encode (Wire.Op_req { req; corr = 0; op })

(* One request, one turn, one reply. *)
let call server cid req op =
  Server.feed server cid (request req op);
  ignore (Server.step server);
  match decode_all "call" (Server.output server cid) with
  | [ Wire.Op_reply { outcome; _ } ] -> outcome
  | fs -> Alcotest.failf "expected one reply, got %d frame(s)" (List.length fs)

let gen_srv_op =
  let open QCheck2.Gen in
  let path = map (fun c -> [ c ]) (oneofl [ "a"; "b"; "c" ]) in
  let vfd = int_bound 5 in
  let off = int_bound 40_000 in
  oneof
    [
      map (fun path -> Op.Create (path, 0o644)) path;
      map (fun path -> Op.Open (path, Types.flags_rw)) path;
      map3 (fun fd off n -> Op.Pwrite (fd, off, String.make n 'w')) vfd off (int_bound 20_000);
      map3 (fun fd off len -> Op.Pread (fd, off, len)) vfd off (int_bound 20_000);
      map (fun fd -> Op.Fstat fd) vfd;
      map (fun fd -> Op.Close fd) vfd;
      map (fun path -> Op.Unlink path) path;
      return (Op.Readdir []);
      return Op.Sync;
    ]

let prop_drain_matches_output =
  (* Two servers over identical fresh images get the same request
     stream; one hands its output out through [drain], the other through
     [output], after every turn. *)
  QCheck2.Test.make ~name:"drain hands out what output returns" ~count:30
    ~print:(fun turns ->
      String.concat " / "
        (List.map (fun ops -> String.concat ", " (List.map (Format.asprintf "%a" Op.pp) ops)) turns))
    QCheck2.Gen.(list_size (int_range 1 12) (list_size (int_bound 6) gen_srv_op))
    (fun turns ->
      let a = Server.create (mk_ctl ()) and b = Server.create (mk_ctl ()) in
      let ca = attach a and cb = attach b in
      let req = ref 0 in
      List.for_all
        (fun ops ->
          List.iter
            (fun op ->
              incr req;
              Server.feed a ca (request !req op);
              Server.feed b cb (request !req op))
            ops;
          ignore (Server.step a);
          ignore (Server.step b);
          let calls = ref 0 and got = Buffer.create 16 in
          Server.drain a ca (fun buf off len ->
              incr calls;
              Buffer.add_subbytes got buf off len);
          let want = Server.output b cb in
          Buffer.contents got = want && !calls = if want = "" then 0 else 1)
        turns)

(* A warm 16 KiB read reply, from the request bytes to the drained
   slice: the read's one string is the only block that skips the minor
   heap; the frame is encoded into the connection's grown buffer. *)
let test_read_reply_allocation () =
  let server = Server.create (mk_ctl ()) in
  let cid = attach server in
  let data = String.init 16384 (fun i -> Char.chr (i * 13 land 0xff)) in
  ignore (ok_or "create" (call server cid 1 (Op.Create (p "/big", 0o644))));
  let fd =
    match call server cid 2 (Op.Open (p "/big", Types.flags_rw)) with
    | Ok (Op.Fd fd) -> fd
    | _ -> Alcotest.fail "open"
  in
  ignore (ok_or "pwrite" (call server cid 3 (Op.Pwrite (fd, 0, data))));
  ignore (ok_or "warm pread" (call server cid 4 (Op.Pread (fd, 0, 16384))));
  let req = request 5 (Op.Pread (fd, 0, 16384)) in
  let sink = Bytes.create 32768 and got = ref 0 in
  let words =
    Alloc_words.direct_major_words (fun () ->
        Server.feed server cid req;
        ignore (Server.step server);
        Server.drain server cid (fun buf off len ->
            Bytes.blit buf off sink 0 len;
            got := len))
  in
  (match decode_all "reply" (Bytes.sub_string sink 0 !got) with
  | [ Wire.Op_reply { req = 5; outcome = Ok (Op.Data d) } ] ->
      Alcotest.(check bool) "read back" true (d = data)
  | _ -> Alcotest.fail "expected the read reply");
  let one_string = Alloc_words.string_words 16384 in
  if words <> float_of_int one_string then
    Alcotest.failf "a 16 KiB read reply allocated %.0f major words, not one %d-word string" words
      one_string

(* [s] cut into [n]-byte pieces, as a socket hands a stream over. *)
let pieces_of s n =
  List.init ((String.length s + n - 1) / n) (fun i ->
      String.sub s (i * n) (min n (String.length s - (i * n))))

(* A frame near the 4 MiB payload limit, fed in 4 KiB pieces as a socket
   hands it over: it is reassembled once, not copied again per piece.
   The backlog buffer doubles as it grows, so its last buffer is under
   twice the frame and all of them add up to under four frames; the
   decoded write owns one more copy.  Copying the backlog per piece
   costs about 500 frames here. *)
let test_feed_large_frame_in_pieces () =
  let server = Server.create (mk_ctl ()) in
  let cid = attach server in
  let data = String.make ((4 * 1024 * 1024) - 64) 'd' in
  let frame = request 9 (Op.Pwrite (99, 0, data)) in
  let pieces = pieces_of frame 4096 in
  let words = Alloc_words.direct_major_words (fun () -> List.iter (Server.feed server cid) pieces) in
  ignore (Server.step server);
  (match decode_all "reply" (Server.output server cid) with
  | [ Wire.Op_reply { req = 9; outcome = Error Errno.EBADF } ] -> ()
  | fs -> Alcotest.failf "expected one EBADF reply, got %d frame(s)" (List.length fs));
  let frame_words = float_of_int (Alloc_words.string_words (String.length frame)) in
  if words > 5. *. frame_words then
    Alcotest.failf "reassembling a %d-byte frame allocated %.0f major words (%.1f frames)"
      (String.length frame) words (words /. frame_words)

(* The client's side of the same reassembly: a 4 MiB read reply handed
   to [Srv_client.exec] in 4 KiB pieces through a scripted [io], under
   the same bound.  Appending each piece to a string backlog costs
   about 500 frames here. *)
let test_client_large_reply_in_pieces () =
  let data = String.make ((4 * 1024 * 1024) - 64) 'r' in
  let reply = Wire.encode (Wire.Op_reply { req = 2; outcome = Ok (Op.Data data) }) in
  let pieces = pieces_of reply 4096 and inbox = Queue.create () in
  let answer frame = Queue.add (Wire.encode frame) inbox in
  let send bytes =
    match Wire.decode_string bytes with
    | Wire.Frame (Wire.Hello _, _) ->
        answer (Wire.Hello_ok { session = 1; version = Wire.protocol_version })
    | Wire.Frame (Wire.Op_req { req = 1; _ }, _) ->
        answer (Wire.Op_reply { req = 1; outcome = Ok (Op.Fd 7) })
    | _ -> List.iter (fun s -> Queue.add s inbox) pieces
  in
  let recv () = Some (Option.value ~default:"" (Queue.take_opt inbox)) in
  let io = { Client.io_send = send; io_recv = recv; io_close = ignore } in
  let c =
    match Client.connect ~dial:(fun () -> Some io) () with Ok c -> c | Error m -> Alcotest.fail m
  in
  let fd =
    match Client.exec c (Op.Open (p "/big", Types.flags_rw)) with
    | Ok (Op.Fd fd) -> fd
    | _ -> Alcotest.fail "open"
  in
  let got = ref (Error Errno.EIO) in
  let words =
    Alloc_words.direct_major_words (fun () ->
        got := Client.exec c (Op.Pread (fd, 0, String.length data)))
  in
  Alcotest.(check bool) "read back" true (!got = Ok (Op.Data data));
  let frame_words = float_of_int (Alloc_words.string_words (String.length reply)) in
  if words > 5. *. frame_words then
    Alcotest.failf "reassembling a %d-byte reply allocated %.0f major words (%.1f frames)"
      (String.length reply) words (words /. frame_words)

(* Twin servers over identical fresh images get the same frame stream:
   one in a single [feed], the other cut at arbitrary points.  Every
   cut gives the same replies. *)
let prop_feed_chunking =
  QCheck2.Test.make ~name:"any chunking of a stream = one feed" ~count:60
    ~print:(fun (ops, cuts) ->
      Printf.sprintf "%s | cuts %s"
        (String.concat ", " (List.map (Format.asprintf "%a" Op.pp) ops))
        (String.concat "," (List.map string_of_int cuts)))
    QCheck2.Gen.(
      pair (list_size (int_range 1 10) gen_srv_op) (list_size (int_bound 12) (int_range 1 9000)))
    (fun (ops, cuts) ->
      let stream = String.concat "" (List.mapi (fun i op -> request (i + 1) op) ops) in
      let whole = Server.create (mk_ctl ()) and pieces = Server.create (mk_ctl ()) in
      let cw = attach whole and cp = attach pieces in
      Server.feed whole cw stream;
      let rec cut pos = function
        | _ when pos >= String.length stream -> ()
        | [] -> Server.feed pieces cp (String.sub stream pos (String.length stream - pos))
        | n :: rest ->
            let n = min n (String.length stream - pos) in
            Server.feed pieces cp (String.sub stream pos n);
            cut (pos + n) rest
      in
      cut 0 cuts;
      let replies server cid =
        while Server.step server > 0 do
          ()
        done;
        Server.output server cid
      in
      replies whole cw = replies pieces cp)

(* Two requests that each trip the armed bug, dispatched in one turn: every
   session gets both notes, in seq order, with each report's trigger and
   wall time. *)
let test_recovery_notes_one_turn () =
  let ctl = mk_ctl ~bugs:(arm [ "crafted-name-panic" ]) () in
  let server = Server.create ctl in
  let a = attach server and b = attach server in
  Server.feed server a (request 1 (Op.Create (p "/pwn", 0o644)));
  Server.feed server b (request 1 (Op.Stat (p "/pwn")));
  ignore (Server.step server);
  let reports = Controller.recoveries ctl in
  Alcotest.(check int) "two recoveries" 2 (List.length reports);
  let want =
    List.mapi
      (fun i r ->
        Wire.Note_recovered
          {
            seq = i + 1;
            trigger = Rae_core.Report.trigger_to_string r.Rae_core.Report.r_trigger;
            wall_us = int_of_float (r.Rae_core.Report.r_wall_seconds *. 1e6);
          })
      reports
  in
  List.iter
    (fun (name, cid) ->
      match decode_all name (Server.output server cid) with
      | Wire.Op_reply { req = 1; outcome = Ok _ } :: notes ->
          Alcotest.(check (list string))
            (name ^ ": notes") (List.map frame_to_string want) (List.map frame_to_string notes)
      | _ -> Alcotest.failf "%s: expected its reply, then the notes" name)
    [ ("a", a); ("b", b) ]

(* ---- the daemon's socket transport ---- *)

module Socket_transport = Rae_srv.Socket_transport
module Transport = Rae_srv.Transport

let with_socket f =
  let path = Filename.temp_file "rae-srv" ".sock" in
  Sys.remove path;
  let tr = Socket_transport.create ~path ~timeout:0.01 in
  let client = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.ADDR_UNIX path);
  let rec accepted tries =
    match Socket_transport.poll tr with
    | [ Transport.Accepted link ] -> link
    | _ when tries > 0 -> accepted (tries - 1)
    | _ -> Alcotest.fail "no Accepted event"
  in
  let link = accepted 100 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client with Unix.Unix_error _ -> ());
      Socket_transport.close tr link;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f tr link client)

let test_socket_large_send () =
  with_socket (fun tr link client ->
      let big = Bytes.init (4 * 1024 * 1024) (fun i -> Char.chr (((i * 31) + (i lsr 12)) land 0xff)) in
      let small = Bytes.of_string "the tail" in
      let expected = Bytes.to_string big ^ "tail" in
      Socket_transport.send tr link big 0 (Bytes.length big);
      Socket_transport.send tr link small 4 4;
      (* The slices were borrowed: clobbering them must not reach the peer. *)
      Bytes.fill big 0 (Bytes.length big) '\000';
      Bytes.fill small 0 (Bytes.length small) '\000';
      Unix.set_nonblock client;
      let got = Buffer.create (String.length expected) in
      let chunk = Bytes.create 65536 in
      let deadline = Unix.gettimeofday () +. 20. in
      while Buffer.length got < String.length expected && Unix.gettimeofday () < deadline do
        List.iter
          (function
            | Transport.Closed _ -> Alcotest.fail "link closed" | _ -> ())
          (Socket_transport.poll tr);
        match Unix.read client chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "unexpected EOF"
        | n -> Buffer.add_subbytes got chunk 0 n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      done;
      Alcotest.(check int) "bytes received" (String.length expected) (Buffer.length got);
      Alcotest.(check bool) "bytes equal, in order" true (Buffer.contents got = expected))

let test_socket_send_to_closed_peer () =
  with_socket (fun tr link client ->
      Unix.close client;
      Socket_transport.send tr link (Bytes.of_string "reply") 0 5;
      Alcotest.(check bool) "dropped link reported closed" true
        (List.mem (Transport.Closed link) (Socket_transport.poll tr));
      Socket_transport.send tr link (Bytes.of_string "again") 0 5;
      Alcotest.(check bool) "reported once" false
        (List.mem (Transport.Closed link) (Socket_transport.poll tr)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_srv"
    [
      ( "wire",
        [
          q prop_roundtrip;
          q prop_encode_into_matches_encode;
          q prop_encoder_matches_reference;
          q prop_truncated;
          q prop_corrupted;
          q prop_chunked;
          Alcotest.test_case "errno wire codes total and injective" `Quick
            test_errno_wire_total;
          Alcotest.test_case "random garbage never raises" `Quick test_decode_garbage;
          Alcotest.test_case "out-of-range pos/len fails, never raises" `Quick
            test_decode_out_of_range;
          Alcotest.test_case "corr id across protocol versions" `Quick
            test_wire_corr_versioning;
        ] );
      ( "session",
        [
          Alcotest.test_case "unknown vfd is EBADF" `Quick test_session_translate_ebadf;
          Alcotest.test_case "bind/translate/release" `Quick test_session_fd_binding;
          Alcotest.test_case "descriptor quota EMFILE" `Quick test_session_fd_quota;
          Alcotest.test_case "inflight quota refuses" `Quick test_session_inflight_quota;
        ] );
      ( "server",
        [
          Alcotest.test_case "bad hello rejected" `Quick test_server_bad_hello;
          Alcotest.test_case "op before hello drops" `Quick test_server_op_before_hello;
          Alcotest.test_case "corrupt stream drops" `Quick test_server_corrupt_stream_drops;
          Alcotest.test_case "backpressure answers Busy" `Quick test_server_backpressure;
          Alcotest.test_case "round-robin fairness" `Quick test_server_fairness;
          Alcotest.test_case "idle sessions evicted" `Quick test_server_idle_eviction;
        ] );
      ( "serving",
        [
          Alcotest.test_case "recovery transparency, 4 sessions" `Quick
            test_recovery_transparency;
          Alcotest.test_case "reconnect re-validates fds" `Quick
            test_reconnect_revalidates_fds;
          Alcotest.test_case "detach then EIO" `Quick test_client_detach_then_eio;
          Alcotest.test_case "metrics/bundle verbs over the wire" `Quick test_obs_verbs;
          Alcotest.test_case "exports the metric names rfsbench reads" `Quick
            test_rfsbench_metric_names;
          Alcotest.test_case "bundle names impacted sessions by corr id" `Quick
            test_bundle_names_impacted_sessions;
          Alcotest.test_case "two recoveries in one turn: both notes" `Quick
            test_recovery_notes_one_turn;
        ] );
      (* Group labels stay within seven characters: a longer one widens
         Alcotest's label column and shortens every truncated test name. *)
      ( "reply",
        [
          q prop_drain_matches_output;
          Alcotest.test_case "16 KiB read reply allocates one string" `Quick
            test_read_reply_allocation;
          Alcotest.test_case "socket: 4 MiB then small, in order" `Quick test_socket_large_send;
          Alcotest.test_case "socket: send to a closed peer drops the link" `Quick
            test_socket_send_to_closed_peer;
          Alcotest.test_case "a 4 MiB frame in 4 KiB pieces" `Quick
            test_feed_large_frame_in_pieces;
          q prop_feed_chunking;
          Alcotest.test_case "client: a 4 MiB reply in 4 KiB pieces" `Quick
            test_client_large_reply_in_pieces;
        ] );
    ]
