(* Tests for rae_par and its one user: pool fork/join semantics, and
   crash-sweep verdict-set equality across pool sizes.  The recovery
   stack itself is single-domain; its checkpoint tests live in
   test_core. *)

module Pool = Rae_par.Pool
module Engine = Rae_crash.Engine

let with_pool domains f =
  let pl = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pl) (fun () -> f pl)

(* ---- the pool itself ---- *)

let test_pool_size_one_is_sequential () =
  with_pool 1 (fun pl ->
      Alcotest.(check int) "size" 1 (Pool.size pl);
      let seen = ref [] in
      Pool.parallel_for pl ~n:10 (fun i -> seen := i :: !seen);
      Alcotest.(check (list int)) "ascending order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (List.rev !seen);
      let st = Pool.stats pl in
      Alcotest.(check int) "counted as sequential" 1 st.Pool.seq_batches;
      Alcotest.(check int) "no parallel batch" 0 st.Pool.batches)

let test_pool_every_index_exactly_once () =
  with_pool 4 (fun pl ->
      let n = 1000 in
      let hits = Array.make n 0 in
      (* Small chunks force dealing across all four deques (and give the
         work-stealing path something to steal). *)
      Pool.parallel_for pl ~chunk:7 ~n (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "index %d ran %d times" i c)
        hits;
      let st = Pool.stats pl in
      Alcotest.(check bool) "chunks counted" true (st.Pool.tasks_run >= n / 7);
      Alcotest.(check int) "one parallel batch" 1 st.Pool.batches;
      Pool.reset_stats pl;
      Alcotest.(check int) "reset" 0 (Pool.stats pl).Pool.tasks_run)

let test_pool_map_array () =
  with_pool 3 (fun pl ->
      let xs = Array.init 257 (fun i -> i) in
      let got = Pool.map_array pl ~chunk:5 (fun x -> (x * 2) + 1) xs in
      Alcotest.(check bool) "matches Array.map" true
        (got = Array.map (fun x -> (x * 2) + 1) xs))

let test_pool_reraises_child_exception () =
  with_pool 4 (fun pl ->
      (match Pool.parallel_for pl ~chunk:1 ~n:64 (fun i -> if i = 17 then failwith "boom17") with
      | () -> Alcotest.fail "expected the child's exception"
      | exception Failure m -> Alcotest.(check string) "child exception re-raised" "boom17" m);
      (* The batch joined cleanly: the pool is reusable afterwards. *)
      let hits = Array.make 64 0 in
      Pool.parallel_for pl ~chunk:1 ~n:64 (fun i -> hits.(i) <- 1);
      Alcotest.(check bool) "pool survives a failed batch" true
        (Array.for_all (fun c -> c = 1) hits))

let test_pool_shutdown_degrades () =
  let pl = Pool.create ~domains:3 () in
  Pool.shutdown pl;
  Pool.shutdown pl (* idempotent *);
  let seen = ref [] in
  Pool.parallel_for pl ~n:5 (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "sequential after shutdown" [ 0; 1; 2; 3; 4 ] (List.rev !seen)

(* ---- crash engine: verdict sets across pool sizes ---- *)

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
  with_pool 2 (fun p2 ->
      let par2 = Engine.sweep_bounded ~pool:p2 ~max_workloads:40 () in
      Alcotest.(check bool) "par=2 verdicts equal" true
        (sweep_fingerprint seq = sweep_fingerprint par2));
  let par4 = with_pool 4 (fun p4 -> Engine.sweep_bounded ~pool:p4 ~max_workloads:40 ()) in
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
          Alcotest.test_case "shutdown degrades to sequential" `Quick test_pool_shutdown_degrades;
        ] );
      ( "crash-sweep",
        [
          Alcotest.test_case "verdict sets equal across pool sizes" `Slow
            test_sweep_verdicts_equal_across_domains;
        ] );
    ]
