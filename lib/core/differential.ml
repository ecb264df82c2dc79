open Rae_vfs
module Base = Rae_basefs.Base
module Shadow = Rae_shadowfs.Shadow
module Detector = Rae_basefs.Detector

type mismatch = {
  m_index : int;
  m_op : Op.t;
  m_base : Op.outcome;
  m_shadow : Op.outcome;
}

type result = {
  ops_run : int;
  mismatches : mismatch list;
  base_crashed : string option;
  shadow_violation : string option;
  final_state_equal : bool;
}

let agreement r =
  r.mismatches = [] && r.base_crashed = None && r.shadow_violation = None && r.final_state_equal

let pp_mismatch ppf m =
  Format.fprintf ppf "op %d %a: base %a, shadow %a" m.m_index Op.pp m.m_op Op.pp_outcome m.m_base
    Op.pp_outcome m.m_shadow

let pp_result ppf r =
  Format.fprintf ppf "@[<v>differential: %d ops, %d mismatches%s%s, final states %s@,"
    r.ops_run (List.length r.mismatches)
    (match r.base_crashed with Some m -> ", base crashed: " ^ m | None -> "")
    (match r.shadow_violation with Some m -> ", shadow violation: " ^ m | None -> "")
    (if r.final_state_equal then "equal" else "DIFFER");
  List.iter (fun m -> Format.fprintf ppf "  %a@," pp_mismatch m) r.mismatches;
  Format.fprintf ppf "@]"

(* Walk two trees through their public APIs and compare contents.  The
   walk is generic over a read-only [view] so it can compare base vs
   shadow (the differential harness) and shadow vs shadow (the
   checkpoint-equivalence property). *)
type view = {
  v_readdir : Path.t -> (string list, Errno.t) Stdlib.result;
  v_stat : Path.t -> (Types.stat, Errno.t) Stdlib.result;
  v_read : Path.t -> int -> string option;  (* open / pread whole / close *)
  v_readlink : Path.t -> (string, Errno.t) Stdlib.result;
  (* Descriptor tables are compared by count + probe, not by building and
     sorting snapshot lists on both sides. *)
  v_fd_count : unit -> int;
  v_fd_iter : (Types.fd -> Types.ino -> Types.open_flags -> unit) -> unit;
  v_fd_lookup : Types.fd -> (Types.ino * Types.open_flags) option;
}

let base_view base =
  {
    v_readdir = (fun p -> Base.readdir base p);
    v_stat = (fun p -> Base.stat base p);
    v_read =
      (fun p len ->
        match Base.openf base p Types.flags_ro with
        | Ok fd ->
            let data = Base.pread base fd ~off:0 ~len in
            ignore (Base.close base fd);
            Result.to_option data
        | Error _ -> None);
    v_readlink = (fun p -> Base.readlink base p);
    v_fd_count = (fun () -> Base.fd_count base);
    v_fd_iter = (fun f -> Base.fd_iter base f);
    v_fd_lookup = (fun fd -> Base.fd_lookup base fd);
  }

let shadow_view shadow =
  {
    v_readdir = (fun p -> Shadow.readdir shadow p);
    v_stat = (fun p -> Shadow.stat shadow p);
    v_read =
      (fun p len ->
        match Shadow.openf shadow p Types.flags_ro with
        | Ok fd ->
            let data = Shadow.pread shadow fd ~off:0 ~len in
            ignore (Shadow.close shadow fd);
            Result.to_option data
        | Error _ -> None);
    v_readlink = (fun p -> Shadow.readlink shadow p);
    v_fd_count = (fun () -> Shadow.fd_count shadow);
    v_fd_iter = (fun f -> Shadow.fd_iter shadow f);
    v_fd_lookup = (fun fd -> Shadow.fd_lookup shadow fd);
  }

(* Equal sizes + left ⊆ right (keys are unique) ⇒ equal tables, so one
   iterate-and-probe pass replaces two sorted snapshot lists. *)
let fds_equal l r =
  let exception Differ in
  l.v_fd_count () = r.v_fd_count ()
  &&
  match
    l.v_fd_iter (fun fd ino flags ->
        match r.v_fd_lookup fd with
        | Some (ino', flags') when ino = ino' && flags = flags' -> ()
        | _ -> raise Differ)
  with
  | () -> true
  | exception Differ -> false

let views_equal l r =
  let exception Differ in
  let rec walk path =
    match (l.v_readdir path, r.v_readdir path) with
    | Ok b, Ok s ->
        if b <> s then raise Differ;
        List.iter
          (fun name ->
            let child = Path.append path name in
            match (l.v_stat child, r.v_stat child) with
            | Ok b, Ok s ->
                if not (Types.stat_equal b s) then raise Differ;
                (match b.Types.st_kind with
                | Types.Directory -> walk child
                | Types.Regular ->
                    let get v =
                      match v.v_read child b.Types.st_size with
                      | Some data -> data
                      | None -> raise Differ
                    in
                    if get l <> get r then raise Differ
                | Types.Symlink ->
                    (* stat follows; a symlink kind here is unreachable,
                       but compare targets via readlink when both agree. *)
                    if l.v_readlink child <> r.v_readlink child then raise Differ)
            | Error e1, Error e2 when Errno.equal e1 e2 ->
                (* A dangling symlink: compare the link itself. *)
                if l.v_readlink child <> r.v_readlink child then raise Differ
            | _ -> raise Differ)
          b
    | Error e1, Error e2 when Errno.equal e1 e2 -> ()
    | _ -> raise Differ
  in
  match walk [] with () -> fds_equal l r | exception Differ -> false

let states_equal base shadow = views_equal (base_view base) (shadow_view shadow)
let shadow_states_equal a b = views_equal (shadow_view a) (shadow_view b)

(* ---- crash-image equivalence (the rae_crash oracle) ---- *)

let spec_view sp =
  let module Spec = Rae_specfs.Spec in
  {
    v_readdir = (fun p -> Spec.readdir sp p);
    v_stat = (fun p -> Spec.stat sp p);
    v_read =
      (fun p len ->
        match Spec.openf sp p Types.flags_ro with
        | Ok fd ->
            let data = Spec.pread sp fd ~off:0 ~len in
            ignore (Spec.close sp fd);
            Result.to_option data
        | Error _ -> None);
    v_readlink = (fun p -> Spec.readlink sp p);
    v_fd_count = (fun () -> List.length (Spec.open_fds sp));
    v_fd_iter =
      (fun f -> List.iter (fun (fd, ino, flags) -> f fd ino flags) (Spec.open_fds sp));
    v_fd_lookup =
      (fun fd ->
        List.find_map
          (fun (fd', ino, flags) -> if fd = fd' then Some (ino, flags) else None)
          (Spec.open_fds sp));
  }

let crash_states_equal ~dirty spec shadow =
  (* Compare a recovered crash image (under the shadow) against one legal
     durable state (a spec snapshot at a journal-commit boundary).

     Descriptor tables are volatile — a power cut forgets them — so they
     are not compared.  Metadata is journal-protected and therefore
     compared strictly; file contents take the ordered-data route to the
     medium outside the transaction, so for inodes the suffix beyond the
     crash point's durable bound touched ([dirty]) the bytes may legally
     be torn: their content (and, for directories freed-and-reused in
     that suffix, the subtree) is skipped, exactly the data=ordered
     contract B3 checks against. *)
  let l = spec_view spec and r = shadow_view shadow in
  let exception Differ in
  let rec walk path =
    match (l.v_readdir path, r.v_readdir path) with
    | Ok b, Ok s ->
        if b <> s then raise Differ;
        List.iter
          (fun name ->
            let child = Path.append path name in
            match (l.v_stat child, r.v_stat child) with
            | Ok b, Ok s ->
                if not (Types.stat_equal b s) then raise Differ;
                let torn = dirty b.Types.st_ino in
                (match b.Types.st_kind with
                | Types.Directory -> if not torn then walk child
                | Types.Regular ->
                    if not torn then
                      let get v =
                        match v.v_read child b.Types.st_size with
                        | Some data -> data
                        | None -> raise Differ
                      in
                      if get l <> get r then raise Differ
                | Types.Symlink ->
                    if (not torn) && l.v_readlink child <> r.v_readlink child then raise Differ)
            | Error e1, Error e2 when Errno.equal e1 e2 ->
                if l.v_readlink child <> r.v_readlink child then raise Differ
            | _ -> raise Differ)
          b
    | Error e1, Error e2 when Errno.equal e1 e2 -> ()
    | _ -> raise Differ
  in
  match walk [] with () -> true | exception Differ -> false

let run ?(nblocks = 8192) ?(ninodes = 1024) ?base_config ?bugs ops =
  let fresh () =
    let disk =
      Rae_block.Disk.create ~latency:Rae_block.Disk.zero_latency
        ~block_size:Rae_format.Layout.block_size ~nblocks ()
    in
    let dev = Rae_block.Device.of_disk disk in
    match Rae_basefs.Base.mkfs dev ~ninodes () with
    | Ok () -> dev
    | Error msg -> invalid_arg ("Differential.run: mkfs failed: " ^ msg)
  in
  let base_dev = fresh () and shadow_dev = fresh () in
  let base =
    match Base.mount ?config:base_config ?bugs base_dev with
    | Ok b -> b
    | Error msg -> invalid_arg ("Differential.run: mount failed: " ^ msg)
  in
  let shadow =
    match Shadow.attach shadow_dev with
    | Ok s -> s
    | Error msg -> invalid_arg ("Differential.run: shadow attach failed: " ^ msg)
  in
  let mismatches = ref [] in
  let base_crashed = ref None and shadow_violation = ref None in
  let ran = ref 0 in
  (try
     List.iteri
       (fun i op ->
         let b_out =
           match Base.exec base op with
           | o -> o
           | exception Detector.Base_bug { bug; msg } ->
               base_crashed := Some (Printf.sprintf "[%s] %s (at op %d)" bug msg i);
               raise Exit
           | exception Detector.Hang { bug; msg } ->
               base_crashed := Some (Printf.sprintf "hang [%s] %s (at op %d)" bug msg i);
               raise Exit
           | exception Detector.Validation_failed { context; msg } ->
               base_crashed := Some (Printf.sprintf "validation [%s] %s (at op %d)" context msg i);
               raise Exit
         in
         let s_out =
           match Shadow.exec shadow op with
           | o -> o
           | exception Shadow.Violation msg ->
               shadow_violation := Some (Printf.sprintf "%s (at op %d)" msg i);
               raise Exit
         in
         incr ran;
         if not (Op.outcome_equal b_out s_out) then
           mismatches := { m_index = i; m_op = op; m_base = b_out; m_shadow = s_out } :: !mismatches)
       ops
   with Exit -> ());
  let final_state_equal =
    if !base_crashed = None && !shadow_violation = None then states_equal base shadow else false
  in
  {
    ops_run = !ran;
    mismatches = List.rev !mismatches;
    base_crashed = !base_crashed;
    shadow_violation = !shadow_violation;
    final_state_equal;
  }

let run_seeded ?(count = 1000) ?profile ~seed () =
  let rng = Rae_util.Rng.create seed in
  let ops =
    match profile with
    | Some p -> Rae_workload.Workload.ops p rng ~count
    | None -> Rae_workload.Workload.uniform rng ~count
  in
  run ops

(* ---- the availability oracle ---- *)

let availability ~seed ~count =
  let dev =
    Rae_block.Device.of_disk
      (Rae_block.Disk.create ~latency:Rae_block.Disk.zero_latency
         ~block_size:Rae_format.Layout.block_size ~nblocks:2048 ())
  in
  (match Base.mkfs dev ~ninodes:256 () with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Differential.availability: mkfs failed: " ^ msg));
  let bugs =
    Rae_basefs.Bug_registry.arm ~rng:(Rae_util.Rng.create 9L)
      (List.filter_map Rae_basefs.Bug_registry.find
         [ "dx-hash-panic"; "mballoc-freecount"; "orphan-close-uaf"; "extent-status-warn" ])
  in
  let base =
    match Base.mount ~config:{ Base.default_config with Base.commit_interval = 8 } ~bugs dev with
    | Ok b -> b
    | Error msg -> invalid_arg ("Differential.availability: mount failed: " ^ msg)
  in
  let ctl = Controller.make ~device:dev base in
  let sp = Rae_specfs.Spec.make () in
  let rec go i = function
    | [] -> (
        match Controller.sync ctl with
        | Error e -> Error ("final sync: " ^ Errno.to_string e)
        | Ok () ->
            let report = Rae_fsck.Fsck.check_device dev in
            if Rae_fsck.Fsck.clean report then Ok ()
            else
              Error
                (Format.asprintf "fsck after the final sync: %a" Rae_fsck.Fsck.pp_report report))
    | op :: rest ->
        let want = Rae_specfs.Spec.exec sp op and got = Controller.exec ctl op in
        if Op.outcome_equal want got then go (i + 1) rest
        else
          Error
            (Format.asprintf "op %d %a: spec %a, RAE %a" i Op.pp op Op.pp_outcome want
               Op.pp_outcome got)
  in
  go 0 (Rae_workload.Workload.uniform (Rae_util.Rng.create seed) ~count)
