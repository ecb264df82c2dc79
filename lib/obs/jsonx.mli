(** Minimal JSON AST, printer and parser.

    The one JSON grammar of the tree: black-box bundles ({!Blackbox}),
    metric snapshots ({!Metrics.to_json}), Chrome traces
    ({!Tracer.parse_chrome}), lint reports, the bench's [--json] output
    and the offline tools.  The printer emits
    canonical JSON (object order preserved, floats round-trippable); the
    parser is a total recursive-descent reader used by the bundle
    checker and the round-trip tests. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [pretty] uses two-space indentation; default is compact. NaN and
    infinities print as [null] (JSON has no spelling for them). *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

exception Parse_error of string

val parse_exn : string -> t
val parse : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] widens to float. *)

val to_str_opt : t -> string option
val to_list_opt : t -> t list option
val to_obj_opt : t -> (string * t) list option
