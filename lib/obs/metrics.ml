(* ---- log-bucketed histograms ---- *)

let nbuckets = 63 (* bucket i covers [2^i, 2^(i+1)); covers the OCaml int range *)

type histogram = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable max : float;
}

let histogram () = { buckets = Array.make nbuckets 0; count = 0; sum = 0.; max = 0. }

(* Index of the most significant set bit: [v] in [2^i, 2^(i+1)) lands in
   bucket [i]; 0 and 1 both land in bucket 0. *)
let bucket_of v =
  let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
  if v <= 0 then 0 else go 0 v

let observe h v =
  let v = if Int64.compare v 0L < 0 then 0 else Int64.to_int v in
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.count <- h.count + 1;
  let f = float_of_int v in
  h.sum <- h.sum +. f;
  if f > h.max then h.max <- f

let h_count h = h.count
let h_sum h = h.sum
let h_max h = h.max

let bucket_lo i = if i = 0 then 0. else Float.of_int (1 lsl i)
let bucket_hi i = Float.of_int (1 lsl (i + 1))

let quantile h q =
  if h.count = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let rank = q *. float_of_int h.count in
    let rec go i cum =
      if i >= nbuckets then h.max
      else
        let n = h.buckets.(i) in
        if n = 0 || cum +. float_of_int n < rank then go (i + 1) (cum +. float_of_int n)
        else
          (* rank falls inside bucket i: interpolate linearly. *)
          let frac = (rank -. cum) /. float_of_int n in
          bucket_lo i +. (frac *. (bucket_hi i -. bucket_lo i))
    in
    go 0 0.
  end

(* ---- the registry ---- *)

type value =
  | Counter of int
  | Gauge of float
  | Histo of { count : int; sum : float; p50 : float; p90 : float; p99 : float; max : float }

type metric = {
  m_help : string;
  m_kind : [ `Counter | `Gauge | `Histogram ];
  m_sample : unit -> value;
}

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let register t name m = Hashtbl.replace t.tbl name m

let register_counter t ?(help = "") name sample =
  register t name { m_help = help; m_kind = `Counter; m_sample = (fun () -> Counter (sample ())) }

let register_gauge t ?(help = "") name sample =
  register t name { m_help = help; m_kind = `Gauge; m_sample = (fun () -> Gauge (sample ())) }

let register_histogram t ?(help = "") name h =
  let sample () =
    Histo
      {
        count = h.count;
        sum = h.sum;
        p50 = quantile h 0.5;
        p90 = quantile h 0.9;
        p99 = quantile h 0.99;
        max = h.max;
      }
  in
  register t name { m_help = help; m_kind = `Histogram; m_sample = sample }

let snapshot t =
  Hashtbl.fold (fun name m acc -> (name, m.m_sample ()) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t name = Option.map (fun m -> m.m_sample ()) (Hashtbl.find_opt t.tbl name)
let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [] |> List.sort String.compare

(* ---- prometheus text exposition ---- *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_prometheus t =
  let b = Buffer.create 1024 in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.tbl name with
      | None -> ()
      | Some m ->
      let pname = sanitize name in
      if m.m_help <> "" then Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" pname m.m_help);
      (match m.m_kind with
      | `Counter -> Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" pname)
      | `Gauge -> Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" pname)
      | `Histogram -> Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" pname));
      match m.m_sample () with
      | Counter v -> Buffer.add_string b (Printf.sprintf "%s %d\n" pname v)
      | Gauge v -> Buffer.add_string b (Printf.sprintf "%s %s\n" pname (fmt_float v))
      | Histo { count; sum; p50; p90; p99; max = _ } ->
          Buffer.add_string b
            (Printf.sprintf "%s{quantile=\"0.5\"} %s\n" pname (fmt_float p50));
          Buffer.add_string b
            (Printf.sprintf "%s{quantile=\"0.9\"} %s\n" pname (fmt_float p90));
          Buffer.add_string b
            (Printf.sprintf "%s{quantile=\"0.99\"} %s\n" pname (fmt_float p99));
          Buffer.add_string b (Printf.sprintf "%s_sum %s\n" pname (fmt_float sum));
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname count))
    (names t);
  Buffer.contents b

(* ---- JSON snapshot export ---- *)

let value_json v =
  match v with
  | Counter n -> Jsonx.Obj [ ("type", Jsonx.Str "counter"); ("value", Jsonx.Int n) ]
  | Gauge g -> Jsonx.Obj [ ("type", Jsonx.Str "gauge"); ("value", Jsonx.Float g) ]
  | Histo { count; sum; p50; p90; p99; max } ->
      Jsonx.Obj
        [
          ("type", Jsonx.Str "histogram");
          ("count", Jsonx.Int count);
          ("sum", Jsonx.Float sum);
          ("p50", Jsonx.Float p50);
          ("p90", Jsonx.Float p90);
          ("p99", Jsonx.Float p99);
          ("max", Jsonx.Float max);
        ]

let json t = Jsonx.Obj (List.map (fun (name, v) -> (name, value_json v)) (snapshot t))
let to_json t = Jsonx.to_string (json t)
