(* Postmortem black-box bundles.

   One self-contained JSON file per recovery completion or fail-stop
   entry: flight-recorder tail, metrics snapshot, recovery report,
   checkpoint stats, journal window summary, policy and provenance
   (git rev + run id).  This module owns the {e container} — schema
   constants, durable write, validation and diff; the controller owns
   the content (layering: obs depends only on util, so nothing here may
   know about reports or checkpoints beyond their JSON shape). *)

let schema_version = "rae-blackbox/1"
let kind_recovery = "recovery"
let kind_failstop = "failstop"
let kind_crash = "crash"

type summary = {
  s_path : string;  (** source path, [""] when checked from memory *)
  s_schema : string;
  s_kind : string;
  s_seq : int;
  s_rev : string;
  s_health : string;
  s_events : int;
  s_trigger : string option;
  s_outcome : string;
  s_sessions : int;  (** impacted sessions named in the bundle *)
}

(* ---- provenance ---- *)

let read_first_line path =
  match open_in path with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim line)
  | exception Sys_error _ -> None

(* Walk up to the enclosing .git and chase HEAD one level.  The bench's
   --json provenance block reads the rev here too. *)
let git_rev () =
  let rec find dir depth =
    if depth > 8 then None
    else
      let head = Filename.concat (Filename.concat dir ".git") "HEAD" in
      if Sys.file_exists head then Some (dir, head)
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else find parent (depth + 1)
  in
  match find (Sys.getcwd ()) 0 with
  | None -> "unknown"
  | Some (root, head) -> (
      match read_first_line head with
      | None | Some "" -> "unknown"
      | Some line ->
          if String.length line > 5 && String.sub line 0 5 = "ref: " then
            let refname = String.sub line 5 (String.length line - 5) in
            let reffile = Filename.concat (Filename.concat root ".git") refname in
            match read_first_line reffile with
            | Some rev when rev <> "" -> rev
            | _ -> line
          else line)

(* ---- durable write ---- *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    match Sys.mkdir dir 0o755 with
    | () -> ()
    | exception Sys_error _ -> ()  (* raced or exists; the open below reports real failures *)
  end

let bundle_name ~seq ~kind = Printf.sprintf "blackbox-%06d-%s.json" seq kind

let write ~dir ~seq ~kind json =
  let path = Filename.concat dir (bundle_name ~seq ~kind) in
  let tmp = path ^ ".tmp" in
  match
    mkdir_p dir;
    let oc = open_out_bin tmp in
    output_string oc (Jsonx.to_string ~pretty:true json);
    output_char oc '\n';
    close_out oc;
    Sys.rename tmp path
  with
  | () -> Ok path
  | exception Sys_error msg -> Error msg

(* ---- validation ---- *)

let known_kinds = [ kind_recovery; kind_failstop; kind_crash ]
let known_health = [ "OK"; "RECOVERING"; "DEGRADED"; "FAILSTOP" ]

let check ?(path = "") json =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let str_field name =
    match Jsonx.member name json with
    | Some (Jsonx.Str s) -> Some s
    | Some _ ->
        err "field %S must be a string" name;
        None
    | None ->
        err "missing field %S" name;
        None
  in
  let int_field name =
    match Jsonx.member name json with
    | Some (Jsonx.Int n) -> Some n
    | Some _ ->
        err "field %S must be an integer" name;
        None
    | None ->
        err "missing field %S" name;
        None
  in
  let obj_field ?(nullable = false) name =
    match Jsonx.member name json with
    | Some (Jsonx.Obj o) -> Some o
    | Some Jsonx.Null when nullable -> None
    | Some _ ->
        err "field %S must be an object%s" name (if nullable then " or null" else "");
        None
    | None ->
        err "missing field %S" name;
        None
  in
  let schema = Option.value ~default:"" (str_field "schema") in
  if schema <> "" && schema <> schema_version then
    err "unknown schema %S (expected %S)" schema schema_version;
  let kind = Option.value ~default:"" (str_field "kind") in
  if kind <> "" && not (List.mem kind known_kinds) then err "unknown bundle kind %S" kind;
  let seq = Option.value ~default:0 (int_field "seq") in
  ignore (int_field "ts_ns");
  let rev = Option.value ~default:"" (str_field "rev") in
  ignore (str_field "run_id");
  let health = Option.value ~default:"" (str_field "health") in
  if health <> "" && not (List.mem health known_health) then err "unknown health %S" health;
  ignore (obj_field "policy");
  ignore (obj_field ~nullable:true "checkpoint");
  ignore (obj_field ~nullable:true "journal");
  ignore (obj_field "metrics");
  let events =
    match Jsonx.member "events" json with
    | Some (Jsonx.List evs) ->
        List.iteri
          (fun i ev ->
            match ev with
            | Jsonx.Obj _ ->
                let want_int f =
                  match Jsonx.member f ev with
                  | Some (Jsonx.Int _) -> ()
                  | _ -> err "events[%d]: missing integer %S" i f
                in
                want_int "seq";
                want_int "ts_ns";
                (match Jsonx.member "kind" ev with
                | Some (Jsonx.Str _) -> ()
                | _ -> err "events[%d]: missing string \"kind\"" i)
            | _ -> err "events[%d] must be an object" i)
          evs;
        List.length evs
    | Some _ ->
        err "field \"events\" must be a list";
        0
    | None ->
        err "missing field \"events\"";
        0
  in
  let trigger, outcome =
    match obj_field "recovery" with
    | None -> (None, "")
    | Some _ -> (
        let r = Option.value ~default:Jsonx.Null (Jsonx.member "recovery" json) in
        let r_str name =
          match Jsonx.member name r with
          | Some (Jsonx.Str s) -> Some s
          | Some Jsonx.Null -> None
          | Some _ ->
              err "recovery.%s must be a string or null" name;
              None
          | None ->
              err "missing field recovery.%s" name;
              None
        in
        let r_int name =
          match Jsonx.member name r with
          | Some (Jsonx.Int _) -> ()
          | _ -> err "missing integer recovery.%s" name
        in
        r_int "window";
        r_int "replayed";
        r_int "skipped";
        (match Jsonx.member "seeded" r with
        | Some (Jsonx.Bool _) -> ()
        | _ -> err "missing boolean recovery.seeded");
        (match Jsonx.member "phases" r with
        | Some (Jsonx.List _) -> ()
        | _ -> err "missing list recovery.phases");
        let trigger = r_str "trigger" in
        let outcome = Option.value ~default:"" (r_str "outcome") in
        (trigger, outcome))
  in
  let sessions =
    match Jsonx.member "impacted_sessions" json with
    | Some (Jsonx.List l) -> List.length l
    | Some _ ->
        err "field \"impacted_sessions\" must be a list";
        0
    | None ->
        err "missing field \"impacted_sessions\"";
        0
  in
  if kind = kind_failstop && health <> "" && health <> "FAILSTOP" then
    err "failstop bundle must report health FAILSTOP (got %S)" health;
  match !errs with
  | [] ->
      Ok
        {
          s_path = path;
          s_schema = schema;
          s_kind = kind;
          s_seq = seq;
          s_rev = rev;
          s_health = health;
          s_events = events;
          s_trigger = trigger;
          s_outcome = outcome;
          s_sessions = sessions;
        }
  | errs -> Error (List.rev errs)

let read_file path =
  match open_in_bin path with
  | ic ->
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      Ok data
  | exception Sys_error msg -> Error msg

let check_file path =
  match read_file path with
  | Error msg -> Error [ Printf.sprintf "%s: %s" path msg ]
  | Ok data -> (
      match Jsonx.parse data with
      | Error msg -> Error [ Printf.sprintf "%s: parse error: %s" path msg ]
      | Ok json -> (
          match check ~path json with
          | Ok s -> Ok s
          | Error errs -> Error (List.map (fun e -> Printf.sprintf "%s: %s" path e) errs)))

let pp_summary ppf s =
  Format.fprintf ppf "%s bundle #%d: health %s, %d event(s), %d session(s)%s, outcome %s [%s]"
    s.s_kind s.s_seq s.s_health s.s_events s.s_sessions
    (match s.s_trigger with Some t -> ", trigger " ^ t | None -> "")
    (if s.s_outcome = "" then "-" else s.s_outcome)
    (if s.s_rev = "" then "unknown" else s.s_rev)

(* ---- structural diff ---- *)

let rec diff_at path a b acc =
  let leaf () = Printf.sprintf "%s: %s vs %s" path (Jsonx.to_string a) (Jsonx.to_string b) :: acc in
  match (a, b) with
  | Jsonx.Obj fa, Jsonx.Obj fb ->
      let keys =
        List.sort_uniq compare (List.map fst fa @ List.map fst fb)
      in
      List.fold_left
        (fun acc k ->
          let sub = if path = "" then k else path ^ "." ^ k in
          match (List.assoc_opt k fa, List.assoc_opt k fb) with
          | Some va, Some vb -> diff_at sub va vb acc
          | Some _, None -> Printf.sprintf "%s: only in first" sub :: acc
          | None, Some _ -> Printf.sprintf "%s: only in second" sub :: acc
          | None, None -> acc)
        acc keys
  | Jsonx.List la, Jsonx.List lb ->
      let n = max (List.length la) (List.length lb) in
      let get l i = List.nth_opt l i in
      let rec go i acc =
        if i >= n then acc
        else
          let sub = Printf.sprintf "%s[%d]" path i in
          let acc =
            match (get la i, get lb i) with
            | Some va, Some vb -> diff_at sub va vb acc
            | Some _, None -> Printf.sprintf "%s: only in first" sub :: acc
            | None, Some _ -> Printf.sprintf "%s: only in second" sub :: acc
            | None, None -> acc
          in
          go (i + 1) acc
      in
      go 0 acc
  | _ -> if a = b then acc else leaf ()

let diff a b = List.rev (diff_at "" a b [])
