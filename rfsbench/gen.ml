(* Seeded steady-state request generators, one per client session.

   A generator is a pure function of (workload, seed, session): the same
   triple always yields the same op stream, so the daemon run, the
   in-process passes and the spec oracle all see identical requests.
   Populations are bounded, so a run of any length stays inside the
   1024-inode / 8192-block image, and every op is chosen to succeed.

   Descriptors: a session's fds are virtual and never reused, so an op
   cannot name a fixed fd.  Generated ops carry a {e slot} number in
   their fd field; an Open with [bind = k] fills slot k from its reply
   and {!subst} rewrites slots to the fds the executing side handed out. *)

open Rae_vfs

type workload = Varmail | Webserver | Metadata_recover

let workloads =
  [ ("varmail", Varmail); ("webserver", Webserver); ("metadata-recover", Metadata_recover) ]

type gop = { op : Op.t; bind : int; trigger : bool }

let subst slots op =
  match op with
  | Op.Close h -> Op.Close slots.(h)
  | Op.Pread (h, off, len) -> Op.Pread (slots.(h), off, len)
  | Op.Pwrite (h, off, data) -> Op.Pwrite (slots.(h), off, data)
  | Op.Fstat h -> Op.Fstat slots.(h)
  | Op.Fsync h -> Op.Fsync slots.(h)
  | op -> op

let nslots = 2

(* ---- workload state ---- *)

(* varmail: a FIFO spool of [mail_target] mails, oldest deleted first. *)
type mail = { m_path : Path.t; mutable m_size : int }

type spool = {
  ring : mail option array;
  mutable head : int;
  mutable len : int;
}

let mail_target = 150
let mail_max_size = 16384

(* webserver: one docroot shared by both sessions. *)
let web_files = 550
let web_dirs = 10
let web_read = 16384
let log_cap = 262144

type web = {
  files : Path.t array;
  sizes : int array;
  cdf : float array;  (* Zipf(s = 1) over popularity ranks *)
  perm : int array;  (* rank -> file *)
  log : Path.t;
  mutable reqs : int;
  mutable log_size : int;
}

(* metadata-recover: a bounded bag of names under four directories. *)
type kind = File | Sym

let meta_min = 32
let meta_init = 64
let meta_max = 96

type meta = {
  dirs : Path.t array;
  names : (Path.t * kind) array;
  mutable count : int;
}

type state = Spool of spool | Web of web | Meta of meta

type t = {
  session : int;
  home : Path.t;  (* /s<session>: this session's private subtree *)
  rng : Random.State.t;
  trig_rng : Random.State.t;
  pool : string;  (* payload bytes *)
  pending : gop Queue.t;
  mutable fresh : int;
  mutable trig : (int * int) option;  (* gap range between triggers, in this session's ops *)
  mutable until_trig : int;
  st : state;
}

let plain op = { op; bind = -1; trigger = false }
let push t op = Queue.push (plain op) t.pending
let push_open t path flags slot = Queue.push { op = Op.Open (path, flags); bind = slot; trigger = false } t.pending

let payload t len = String.sub t.pool (Random.State.int t.rng (String.length t.pool - len)) len

let fresh_name t prefix =
  t.fresh <- t.fresh + 1;
  prefix ^ string_of_int t.fresh

(* Zipf(s = 1) inverse CDF by binary search. *)
let zipf_cdf n =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick cdf rng =
  let u = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let create workload ~seed ~session =
  let shared = Random.State.make [| seed; 0x5eed |] in
  let pool = String.init 65536 (fun _ -> Char.chr (Random.State.int shared 256)) in
  let home = [ "s" ^ string_of_int session ] in
  let st =
    match workload with
    | Varmail -> Spool { ring = Array.make 256 None; head = 0; len = 0 }
    | Webserver ->
        let files =
          Array.init web_files (fun i ->
              [ "www"; "d" ^ string_of_int (i mod web_dirs); "f" ^ string_of_int i ])
        in
        let sizes = Array.init web_files (fun _ -> 4096 + Random.State.int shared 12289) in
        let perm = Array.init web_files Fun.id in
        for i = web_files - 1 downto 1 do
          let j = Random.State.int shared (i + 1) in
          let x = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- x
        done;
        Web
          {
            files;
            sizes;
            cdf = zipf_cdf web_files;
            perm;
            log = home @ [ "log" ];
            reqs = 0;
            log_size = 0;
          }
    | Metadata_recover ->
        Meta
          {
            dirs = Array.init 4 (fun k -> home @ [ "d" ^ string_of_int k ]);
            names = Array.make (meta_max + 1) ([], File);
            count = 0;
          }
  in
  {
    session;
    home;
    rng = Random.State.make [| seed; session; 1 |];
    trig_rng = Random.State.make [| seed; session; 2 |];
    pool;
    pending = Queue.create ();
    fresh = 0;
    trig = None;
    until_trig = 0;
    st;
  }

(* ---- varmail ---- *)

let spool_add sp m =
  sp.ring.((sp.head + sp.len) mod Array.length sp.ring) <- Some m;
  sp.len <- sp.len + 1

let spool_get sp i =
  match sp.ring.((sp.head + i) mod Array.length sp.ring) with Some m -> m | None -> assert false

let spool_pop sp =
  let m = spool_get sp 0 in
  sp.ring.(sp.head) <- None;
  sp.head <- (sp.head + 1) mod Array.length sp.ring;
  sp.len <- sp.len - 1;
  m

let deliver t sp ~fsync =
  let path = t.home @ [ fresh_name t "m" ] in
  let len = 200 + Random.State.int t.rng 1849 in
  push_open t path Types.flags_excl 0;
  push t (Op.Pwrite (0, 0, payload t len));
  if fsync then push t (Op.Fsync 0);
  push t (Op.Close 0);
  spool_add sp { m_path = path; m_size = len }

(* One filebench-varmail cycle: delete, deliver, read, append. *)
let varmail_cycle t sp =
  if sp.len >= mail_target then push t (Op.Unlink (spool_pop sp).m_path);
  deliver t sp ~fsync:true;
  let m = spool_get sp (Random.State.int t.rng sp.len) in
  push_open t m.m_path Types.flags_ro 0;
  push t (Op.Pread (0, 0, m.m_size));
  push t (Op.Close 0);
  let m = spool_get sp (Random.State.int t.rng sp.len) in
  if m.m_size < mail_max_size then begin
    let len = 200 + Random.State.int t.rng 1849 in
    push_open t m.m_path Types.flags_rw 0;
    push t (Op.Pwrite (0, m.m_size, payload t len));
    push t (Op.Fsync 0);
    push t (Op.Close 0);
    m.m_size <- m.m_size + len
  end

(* ---- webserver ---- *)

let web_request t w =
  let file = w.perm.(zipf_pick w.cdf t.rng) in
  push_open t w.files.(file) Types.flags_ro 0;
  push t (Op.Pread (0, 0, web_read));
  push t (Op.Close 0);
  w.reqs <- w.reqs + 1;
  if w.reqs mod 10 = 0 then begin
    let len = 512 + Random.State.int t.rng 1536 in
    if w.log_size + len > log_cap then begin
      push t (Op.Truncate (w.log, 0));
      w.log_size <- 0
    end;
    push t (Op.Pwrite (1, w.log_size, payload t len));
    w.log_size <- w.log_size + len
  end

(* ---- metadata-recover ---- *)

let meta_add m entry =
  m.names.(m.count) <- entry;
  m.count <- m.count + 1

let meta_remove m i =
  m.count <- m.count - 1;
  m.names.(i) <- m.names.(m.count)

let meta_fresh_path t m = m.dirs.(Random.State.int t.rng (Array.length m.dirs)) @ [ fresh_name t "n" ]

let meta_pick_file t m =
  let rec go tries =
    if tries = 0 then None
    else match m.names.(Random.State.int t.rng m.count) with path, File -> Some path | _, Sym -> go (tries - 1)
  in
  go 4

let meta_rename t m =
  let i = Random.State.int t.rng m.count in
  let path, kind = m.names.(i) in
  let dst = meta_fresh_path t m in
  push t (Op.Rename (path, dst));
  m.names.(i) <- (dst, kind)

let meta_step t m =
  let room = m.count < meta_max in
  match Random.State.int t.rng 100 with
  | r when r < 14 && room ->
      let path = meta_fresh_path t m in
      push t (Op.Create (path, 0o644));
      meta_add m (path, File)
  | r when r >= 14 && r < 22 && room -> (
      match meta_pick_file t m with
      | Some src ->
          let dst = meta_fresh_path t m in
          push t (Op.Link (src, dst));
          meta_add m (dst, File)
      | None -> meta_rename t m)
  | r when r >= 22 && r < 30 && room ->
      let target, _ = m.names.(Random.State.int t.rng m.count) in
      let path = meta_fresh_path t m in
      push t (Op.Symlink (Path.to_string target, path));
      meta_add m (path, Sym)
  | r when r >= 30 && r < 60 && m.count > meta_min ->
      let i = Random.State.int t.rng m.count in
      push t (Op.Unlink (fst m.names.(i)));
      meta_remove m i
  | r when r >= 60 && r < 75 -> (
      match meta_pick_file t m with
      | Some path -> push t (Op.Chmod (path, 0o600 + Random.State.int t.rng 0o200))
      | None -> meta_rename t m)
  | r when r >= 75 && r < 85 ->
      let dir = t.home @ [ fresh_name t "tmp" ] in
      push t (Op.Mkdir (dir, 0o755));
      push t (Op.Rmdir dir)
  | _ -> meta_rename t m

(* ---- public surface ---- *)

let setup t =
  (match t.st with
  | Spool sp ->
      push t (Op.Mkdir (t.home, 0o755));
      for _ = 1 to mail_target do
        deliver t sp ~fsync:false
      done
  | Web w ->
      (* Session s builds the docroot directories k with k mod 2 = s (so
         the sessions' set-up lists are independent once /www exists);
         /www itself belongs to session 0, whose list runs first. *)
      if t.session = 0 then push t (Op.Mkdir ([ "www" ], 0o755));
      for k = 0 to web_dirs - 1 do
        if k mod 2 = t.session then begin
          push t (Op.Mkdir ([ "www"; "d" ^ string_of_int k ], 0o755));
          Array.iteri
            (fun i path ->
              if i mod web_dirs = k then begin
                push_open t path Types.flags_excl 0;
                push t (Op.Pwrite (0, 0, payload t w.sizes.(i)));
                push t (Op.Close 0)
              end)
            w.files
        end
      done;
      push t (Op.Mkdir (t.home, 0o755));
      push_open t w.log Types.flags_create 1
  | Meta m ->
      push t (Op.Mkdir (t.home, 0o755));
      Array.iter (fun d -> push t (Op.Mkdir (d, 0o755))) m.dirs;
      for _ = 1 to meta_init do
        let path = meta_fresh_path t m in
        push t (Op.Create (path, 0o644));
        meta_add m (path, File)
      done);
  let ops = List.of_seq (Queue.to_seq t.pending) in
  Queue.clear t.pending;
  ops

let draw_gap t = match t.trig with Some (lo, hi) -> t.until_trig <- lo + Random.State.int t.trig_rng (hi - lo + 1) | None -> ()

(* Triggers: a stat of <home>/pwn every [lo..hi] ops ([None]: off).  The
   armed crafted-name-panic bug fires on the "pwn" component. *)
let set_triggers t range =
  t.trig <- range;
  draw_gap t

let next t =
  match t.trig with
  | Some _ when t.until_trig <= 0 ->
      draw_gap t;
      { op = Op.Stat (t.home @ [ "pwn" ]); bind = -1; trigger = true }
  | _ ->
      if Queue.is_empty t.pending then begin
        match t.st with
        | Spool sp -> varmail_cycle t sp
        | Web w -> web_request t w
        | Meta m -> meta_step t m
      end;
      t.until_trig <- t.until_trig - 1;
      Queue.pop t.pending
