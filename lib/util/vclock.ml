(* A disk and its clock are owned by one domain today: each crash-sweep
   point builds its own disk.  The counter stays an atomic so a clock
   shared across domains would not drop ticks, and it holds a native
   [int] (2^62 ns is over a century), so [advance] is one
   [fetch_and_add] and boxes nothing: every device access calls it. *)
type t = { ns : int Atomic.t }

let create () = { ns = Atomic.make 0 }
let now t = Int64.of_int (Atomic.get t.ns)

let advance t delta =
  if Int64.compare delta 0L < 0 then invalid_arg "Vclock.advance: negative delta";
  ignore (Atomic.fetch_and_add t.ns (Int64.to_int delta) : int)

let reset t = Atomic.set t.ns 0

let pp_duration ppf ns =
  let f = Int64.to_float ns in
  if f < 1e3 then Format.fprintf ppf "%.0fns" f
  else if f < 1e6 then Format.fprintf ppf "%.2fus" (f /. 1e3)
  else if f < 1e9 then Format.fprintf ppf "%.2fms" (f /. 1e6)
  else Format.fprintf ppf "%.3fs" (f /. 1e9)
