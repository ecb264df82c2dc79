(* Allocation counts the allocation pins share. *)

(* Words [f] allocates straight into the major heap, net of an empty
   call: blocks over 256 words, such as a 16 KiB string, skip the minor
   heap.  Promoted words are subtracted, so a minor collection inside [f]
   does not count. *)
let direct_major_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let run f =
    let w0 = words () in
    f ();
    words () -. w0
  in
  let idle = run (fun () -> ()) in
  run f -. idle

(* What one [n]-byte string takes in the heap: its bytes and at least one
   padding byte, rounded up to words, plus the header. *)
let string_words n = (n / (Sys.word_size / 8)) + 2

(* Minor words [f] allocates, net of an empty call. *)
let minor_words f =
  let run f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let idle = run (fun () -> ()) in
  run f -. idle
