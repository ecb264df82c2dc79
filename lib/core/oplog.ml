open Rae_vfs

(* The window is a growable array in record order, so [record], [length]
   and [checkpoint] are O(1) (amortised for the occasional doubling) and
   every read-out is one backward pass that conses the list oldest-first. *)
type t = {
  mutable buf : Op.recorded array;  (* slots [0, window) are live, oldest first *)
  mutable window : int;
  mutable next_seq : int;
  mutable fds : (Types.fd * Types.ino * Types.open_flags) list;
  mutable max_window : int;
}

let create () = { buf = [||]; window = 0; next_seq = 0; fds = []; max_window = 0 }

(* What a grown array's free slots hold.  It must not be a fresh record:
   [Array.make] of more than 256 words with a minor-heap initial value
   first runs a whole minor collection. *)
let vacant = { Op.op = Op.Sync; outcome = Ok Op.Unit; seq = -1 }

let record t op outcome =
  let r = { Op.op; outcome; seq = t.next_seq } in
  if t.window = Array.length t.buf then begin
    let grown = Array.make (max 16 (2 * t.window)) vacant in
    Array.blit t.buf 0 grown 0 t.window;
    t.buf <- grown
  end;
  t.buf.(t.window) <- r;
  t.window <- t.window + 1;
  t.next_seq <- t.next_seq + 1;
  if t.window > t.max_window then t.max_window <- t.window

let length t = t.window
let next_seq t = t.next_seq

(* Window slots carry consecutive seqs ending at [next_seq - 1], so the
   suffix from [seq] starts at a computable offset: no scan, O(Δ). *)
let select_from t ~seq keep =
  let start = max 0 (seq - (t.next_seq - t.window)) in
  let rec go i acc =
    if i < start then acc
    else
      let r = t.buf.(i) in
      go (i - 1) (if keep r.Op.op then r :: acc else acc)
  in
  go (t.window - 1) []

let entries_from t ~seq = select_from t ~seq (fun _ -> true)
let entries t = entries_from t ~seq:0

let checkpoint t ~fds =
  t.window <- 0;
  t.buf <- [||] (* drop references so discarded records can be collected *);
  t.fds <- fds

let fd_snapshot t = t.fds
(* Every record takes the next seq and only a checkpoint empties the
   window, so both totals follow from the numbering. *)
let total_recorded t = t.next_seq
let total_discarded t = t.next_seq - t.window
let max_window t = t.max_window
