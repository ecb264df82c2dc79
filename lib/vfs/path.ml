type t = string list

type error = Not_absolute | Empty_component | Bad_component of string | Too_long of string

let pp_error ppf = function
  | Not_absolute -> Format.pp_print_string ppf "path is not absolute"
  | Empty_component -> Format.pp_print_string ppf "empty path component"
  | Bad_component s -> Format.fprintf ppf "bad path component %S" s
  | Too_long s -> Format.fprintf ppf "path component too long: %S" s

let component_ok name =
  name <> "" && name <> "." && name <> ".."
  && String.length name <= Types.max_name_len
  && not (String.exists (fun c -> c = '/' || c = '\000') name)

let parse s =
  if String.length s = 0 || s.[0] <> '/' then Error Not_absolute
  else
    let parts = String.split_on_char '/' s in
    (* First element is "" from the leading slash. *)
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | "" :: rest ->
          (* Collapse duplicate and trailing slashes. *)
          if rest = [] || List.for_all (( = ) "") rest then Ok (List.rev acc)
          else go acc rest
      | "." :: rest -> go acc rest
      | ".." :: rest -> go (match acc with [] -> [] | _ :: tl -> tl) rest
      | name :: rest ->
          if String.length name > Types.max_name_len then Error (Too_long name)
          else if component_ok name then go (name :: acc) rest
          else Error (Bad_component name)
    in
    (* split_on_char never returns []; the leading "" comes from the
       initial slash checked above. *)
    match parts with [] -> Ok [] | _leading :: rest -> go [] rest

let parse_exn s =
  match parse s with
  | Ok p -> p
  | Error e -> invalid_arg (Format.asprintf "Path.parse_exn %S: %a" s pp_error e)

let to_string = function [] -> "/" | parts -> "/" ^ String.concat "/" parts
let pp ppf p = Format.pp_print_string ppf (to_string p)
let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b

let split_last p =
  match List.rev p with [] -> None | last :: rev_parent -> Some (List.rev rev_parent, last)

let append p name = p @ [ name ]

let depth = List.length
