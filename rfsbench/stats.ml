(* One clock and the small statistics the benchmark reports.

   Every duration comes from CLOCK_MONOTONIC through bechamel's
   allocation-free stub, in nanoseconds: client latencies, wrapped
   calls, the Tracer and Server clock hooks, and runtime_events
   timestamps (which the OCaml runtime takes from the same clock) all
   land on one timeline. *)

let now = Monotonic_clock.now
let since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* Growable float sample buffer. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let to_sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

(* Linear-interpolation quantile of a sorted array; 0 when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let mean s = if s.n = 0 then 0. else Array.fold_left ( +. ) 0. (Array.sub s.a 0 s.n) /. float_of_int s.n

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile a 0.5

(* median, quartiles, min, max *)
let spread l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  if Array.length a = 0 then (0., 0., 0., 0., 0.)
  else (quantile a 0.5, quantile a 0.25, quantile a 0.75, a.(0), a.(Array.length a - 1))

let ratio a b = if b = 0. then 0. else a /. b
