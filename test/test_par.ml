(* Tests for rae_par and its one user: the per-call fan-out's contract,
   and crash-sweep verdict-set equality across domain counts.  The
   recovery stack itself is single-domain; its checkpoint tests live in
   test_core. *)

module Pool = Rae_par.Pool
module Engine = Rae_crash.Engine

(* ---- the fan-out itself ---- *)

let test_pool_size_one_is_sequential () =
  List.iter
    (fun domains ->
      let seen = ref [] in
      let got = Pool.map_array ~domains (fun i -> seen := i :: !seen; i) (Array.init 10 Fun.id) in
      Alcotest.(check (list int)) "ascending order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (List.rev !seen);
      Alcotest.(check (array int)) "results" (Array.init 10 Fun.id) got)
    [ 0; 1 ]

(* Spawning a domain can take milliseconds, so with cheap items the
   first participant claims every index.  Items that spin keep all four
   participants claiming. *)
let spin k =
  let acc = ref 0 in
  for j = 1 to k do
    acc := !acc lxor j
  done;
  ignore (Sys.opaque_identity !acc)

let test_pool_every_index_exactly_once () =
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  ignore
    (Pool.map_array ~domains:4
       (fun i ->
         spin 50_000;
         Atomic.incr hits.(i))
       (Array.init n Fun.id));
  Array.iteri
    (fun i c -> if Atomic.get c <> 1 then Alcotest.failf "index %d ran %d times" i (Atomic.get c))
    hits

(* Items cost less as the index rises, and item 0 costs the most: it runs
   until every later item has finished.  So items finish out of index
   order, and the results must still land by index. *)
let test_pool_map_array () =
  let xs = Array.init 257 Fun.id in
  Alcotest.(check (array int)) "matches Array.map"
    (Array.map (fun x -> (x * 2) + 1) xs)
    (Pool.map_array ~domains:3 (fun x -> (x * 2) + 1) xs);
  let n = 64 in
  let finished = Atomic.make 0 in
  let rank = Array.make n (-1) in
  let item i =
    if i = 0 then
      while Atomic.get finished < n - 1 do
        Domain.cpu_relax ()
      done
    else spin ((n - i) * 20_000);
    rank.(i) <- Atomic.fetch_and_add finished 1;
    (i * 2) + 1
  in
  let got = Pool.map_array ~domains:4 item (Array.init n Fun.id) in
  Alcotest.(check (array int)) "results land by index" (Array.init n (fun i -> (i * 2) + 1)) got;
  Alcotest.(check int) "item 0 finished last" (n - 1) rank.(0)

let test_pool_reraises_child_exception () =
  let xs = Array.init 64 Fun.id in
  (match Pool.map_array ~domains:4 (fun i -> if i = 17 then failwith "boom17" else i) xs with
  | _ -> Alcotest.fail "expected the item's exception"
  | exception Failure m -> Alcotest.(check string) "item exception re-raised" "boom17" m);
  (* Every domain joined: the next call works. *)
  Alcotest.(check (array int)) "next call works" xs (Pool.map_array ~domains:4 Fun.id xs)

(* ---- crash engine: verdict sets across domain counts ---- *)

let sweep_fingerprint (s : Engine.stats) =
  ( s.Engine.s_workloads,
    s.Engine.s_points,
    s.Engine.s_consistent,
    s.Engine.s_repaired,
    List.sort compare
      (List.map
         (fun d -> (d.Engine.d_label, d.Engine.d_key, d.Engine.d_reason))
         s.Engine.s_diverging) )

let test_sweep_verdicts_equal_across_domains () =
  let seq = Engine.sweep_bounded ~max_workloads:40 () in
  Alcotest.(check int) "workloads swept" 40 seq.Engine.s_workloads;
  Alcotest.(check bool) "points enumerated" true (seq.Engine.s_points > 0);
  let par2 = Engine.sweep_bounded ~domains:2 ~max_workloads:40 () in
  Alcotest.(check bool) "par=2 verdicts equal" true
    (sweep_fingerprint seq = sweep_fingerprint par2);
  let par4 = Engine.sweep_bounded ~domains:4 ~max_workloads:40 () in
  Alcotest.(check bool) "par=4 verdicts equal" true
    (sweep_fingerprint seq = sweep_fingerprint par4);
  Alcotest.(check int) "no divergence in the bounded space" 0
    (List.length par4.Engine.s_diverging)

let () =
  Alcotest.run "rae_par"
    [
      ( "pool",
        [
          Alcotest.test_case "size 1 = sequential ascending" `Quick test_pool_size_one_is_sequential;
          Alcotest.test_case "every index exactly once" `Quick test_pool_every_index_exactly_once;
          Alcotest.test_case "map_array" `Quick test_pool_map_array;
          Alcotest.test_case "child exception re-raised" `Quick test_pool_reraises_child_exception;
        ] );
      ( "crash-sweep",
        [
          Alcotest.test_case "verdict sets equal across pool sizes" `Slow
            test_sweep_verdicts_equal_across_domains;
        ] );
    ]
