(* Per-call fan-out.  See pool.mli for the contract.

   Each participant loops on one shared counter: [fetch_and_add] hands
   out the next index, and the participant writes its result into that
   index's slot of [out], so slots are disjoint and the results land by
   index whatever order the items finish in.  [Domain.join] orders every
   spawned domain's writes before the caller reads [out].  A failed
   [Domain.spawn] counts as the first exception: the domains already
   spawned stop claiming and are joined before it is re-raised. *)

let map_array ~domains f xs =
  let n = Array.length xs in
  if domains <= 1 || n <= 1 then Array.map f xs
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    let fail e = ignore (Atomic.compare_and_set failed None (Some e)) in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Option.is_none (Atomic.get failed) then begin
        (match f xs.(i) with v -> out.(i) <- Some v | exception e -> fail e);
        work ()
      end
    in
    let spawned = ref [] in
    (try
       for _ = 2 to min domains n do
         spawned := Domain.spawn work :: !spawned
       done
     with e -> fail e);
    work ();
    List.iter Domain.join !spawned;
    match Atomic.get failed with
    | Some e -> raise e
    | None -> Array.map (function Some v -> v | None -> assert false) out
  end
