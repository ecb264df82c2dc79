(* A single lint finding: which rule fired, where, and a stable [key]
   used for suppression-baseline matching (keys survive line drift;
   locations do not). *)

type severity = Error | Warning

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  message : string;
  key : string;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let compare_by_pos a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
  | c -> c

let to_human f =
  Printf.sprintf "%s:%d: %s [%s] %s" f.file f.line (severity_to_string f.severity) f.rule f.message

let to_json f =
  let esc = Rae_obs.Jsonx.escape in
  Printf.sprintf {|{"rule":"%s","severity":"%s","file":"%s","line":%d,"key":"%s","message":"%s"}|}
    (esc f.rule) (severity_to_string f.severity) (esc f.file) f.line (esc f.key) (esc f.message)
