(* Minimal JSON: one shared AST, so the bundle writer, the checker, the
   Chrome trace reader, the lint report and the bench's --json output
   agree on a grammar. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        if Float.is_nan f || Float.is_integer (f /. 0.) then Buffer.add_string buf "null"
        else Buffer.add_string buf (float_repr f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              pad (depth + 1)
            end;
            go (depth + 1) item)
          items;
        if pretty then begin
          Buffer.add_char buf '\n';
          pad depth
        end;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              pad (depth + 1)
            end;
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf (if pretty then "\": " else "\":");
            go (depth + 1) item)
          fields;
        if pretty then begin
          Buffer.add_char buf '\n';
          pad depth
        end;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Parse_error of string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> ()
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' ->
                Buffer.add_char buf '"';
                go ()
            | '\\' ->
                Buffer.add_char buf '\\';
                go ()
            | '/' ->
                Buffer.add_char buf '/';
                go ()
            | 'n' ->
                Buffer.add_char buf '\n';
                go ()
            | 'r' ->
                Buffer.add_char buf '\r';
                go ()
            | 't' ->
                Buffer.add_char buf '\t';
                go ()
            | 'b' ->
                Buffer.add_char buf '\b';
                go ()
            | 'f' ->
                Buffer.add_char buf '\012';
                go ()
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let code =
                  (hex_digit s.[!pos] lsl 12)
                  lor (hex_digit s.[!pos + 1] lsl 8)
                  lor (hex_digit s.[!pos + 2] lsl 4)
                  lor hex_digit s.[!pos + 3]
                in
                pos := !pos + 4;
                (* Our own emitter only produces \u for control bytes; decode
                   the BMP point as UTF-8 so foreign input stays readable. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end;
                go ()
            | _ -> fail "unknown escape")
        | c ->
            Buffer.add_char buf c;
            go ()
      end
    in
    go ();
    Buffer.contents buf
  in
  let parse_literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" lit)
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number '%s'" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some 't' -> parse_literal "true" (Bool true)
    | Some 'f' -> parse_literal "false" (Bool false)
    | Some 'n' -> parse_literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = match parse_exn s with v -> Ok v | exception Parse_error msg -> Error msg

(* ---- accessors ---- *)

let member k v = match v with Obj fields -> List.assoc_opt k fields | _ -> None
let to_int_opt = function Int n -> Some n | _ -> None
let to_float_opt = function Float f -> Some f | Int n -> Some (float_of_int n) | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
let to_obj_opt = function Obj o -> Some o | _ -> None
