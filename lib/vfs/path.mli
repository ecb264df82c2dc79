(** Absolute path handling.

    Paths are absolute, '/'-separated, with "." and ".." resolved lexically
    at parse time (".." never escapes the root, as in POSIX).  Component
    validation is strict — crafted names containing NUL or '/' or exceeding
    {!Types.max_name_len} are rejected with a typed error, because malformed
    names arriving from a crafted disk image are one of the bug classes the
    paper's study highlights. *)

type t = string list
(** A parsed path: the list of components from the root.  [[]] is "/". *)

type error = Not_absolute | Empty_component | Bad_component of string | Too_long of string

val pp_error : Format.formatter -> error -> unit

val component_ok : string -> bool
(** [component_ok name] checks a single name: non-empty, no '/', no NUL, not
    "." or "..", length within {!Types.max_name_len}. *)

val parse : string -> (t, error) result
(** [parse s] parses an absolute path, resolving "." and ".." lexically. *)

val parse_exn : string -> t
(** @raise Invalid_argument on malformed input; for literals in tests. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int

val split_last : t -> (t * string) option
(** [split_last p] is [Some (parent, name)], or [None] for the root. *)

val append : t -> string -> t

val depth : t -> int
