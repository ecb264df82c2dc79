(* Unit tests for the RAE oplog and report modules. *)

open Rae_vfs
module Oplog = Rae_core.Oplog
module Report = Rae_core.Report

let p = Path.parse_exn

let test_record_and_entries () =
  let log = Oplog.create () in
  Alcotest.(check int) "empty" 0 (Oplog.length log);
  Oplog.record log (Op.Create (p "/a", 0o644)) (Ok (Op.Ino 2));
  Oplog.record log (Op.Unlink (p "/b")) (Error Errno.ENOENT);
  Alcotest.(check int) "two entries" 2 (Oplog.length log);
  match Oplog.entries log with
  | [ e1; e2 ] ->
      Alcotest.(check int) "seq 0" 0 e1.Op.seq;
      Alcotest.(check int) "seq 1" 1 e2.Op.seq;
      Alcotest.(check bool) "order oldest-first" true (Op.kind e1.Op.op = Op.K_create);
      Alcotest.(check bool) "outcome kept" true (e2.Op.outcome = Error Errno.ENOENT)
  | other -> Alcotest.failf "expected 2 entries, got %d" (List.length other)

let test_checkpoint_discards_and_snapshots () =
  let log = Oplog.create () in
  Oplog.record log Op.Sync (Ok Op.Unit);
  Oplog.record log Op.Sync (Ok Op.Unit);
  let fds = [ (0, 5, Types.flags_rw); (3, 7, Types.flags_ro) ] in
  Oplog.checkpoint log ~fds;
  Alcotest.(check int) "window cleared" 0 (Oplog.length log);
  Alcotest.(check bool) "fd snapshot stored" true (Oplog.fd_snapshot log = fds);
  Alcotest.(check int) "discard counter" 2 (Oplog.total_discarded log);
  Alcotest.(check int) "total recorded monotonic" 2 (Oplog.total_recorded log)

let test_seq_monotonic_across_checkpoints () =
  let log = Oplog.create () in
  Oplog.record log Op.Sync (Ok Op.Unit);
  Oplog.checkpoint log ~fds:[];
  Oplog.record log Op.Sync (Ok Op.Unit);
  match Oplog.entries log with
  | [ e ] -> Alcotest.(check int) "seq continues" 1 e.Op.seq
  | _ -> Alcotest.fail "expected one entry"

let test_max_window_highwater () =
  let log = Oplog.create () in
  for _ = 1 to 5 do
    Oplog.record log Op.Sync (Ok Op.Unit)
  done;
  Oplog.checkpoint log ~fds:[];
  for _ = 1 to 3 do
    Oplog.record log Op.Sync (Ok Op.Unit)
  done;
  Alcotest.(check int) "high water is 5" 5 (Oplog.max_window log)

let test_entries_from_suffix () =
  let log = Oplog.create () in
  for _ = 1 to 4 do
    Oplog.record log Op.Sync (Ok Op.Unit)
  done;
  Alcotest.(check int) "next_seq counts records" 4 (Oplog.next_seq log);
  (* A mid-window cursor returns exactly the suffix. *)
  (match Oplog.entries_from log ~seq:2 with
  | [ e1; e2 ] ->
      Alcotest.(check int) "suffix starts at cursor" 2 e1.Op.seq;
      Alcotest.(check int) "suffix ends at newest" 3 e2.Op.seq
  | other -> Alcotest.failf "expected 2 entries, got %d" (List.length other));
  (* A cursor at next_seq means nothing to replay. *)
  Alcotest.(check int) "empty delta" 0 (List.length (Oplog.entries_from log ~seq:4));
  (* A cursor older than the window start clamps to the whole window. *)
  Alcotest.(check int) "clamped to window" 4 (List.length (Oplog.entries_from log ~seq:(-3)));
  Alcotest.(check bool) "whole window = entries" true
    (Oplog.entries_from log ~seq:0 = Oplog.entries log)

let test_entries_from_across_checkpoints () =
  let log = Oplog.create () in
  for _ = 1 to 3 do
    Oplog.record log Op.Sync (Ok Op.Unit)
  done;
  Oplog.checkpoint log ~fds:[];
  Alcotest.(check int) "next_seq survives pruning" 3 (Oplog.next_seq log);
  for _ = 1 to 2 do
    Oplog.record log Op.Sync (Ok Op.Unit)
  done;
  Alcotest.(check int) "next_seq keeps counting" 5 (Oplog.next_seq log);
  (* Sequences older than the pruned window clamp to what still exists. *)
  (match Oplog.entries_from log ~seq:1 with
  | [ e1; e2 ] ->
      Alcotest.(check int) "first surviving entry" 3 e1.Op.seq;
      Alcotest.(check int) "newest entry" 4 e2.Op.seq
  | other -> Alcotest.failf "expected 2 entries, got %d" (List.length other));
  (match Oplog.entries_from log ~seq:4 with
  | [ e ] -> Alcotest.(check int) "one-op delta" 4 e.Op.seq
  | other -> Alcotest.failf "expected 1 entry, got %d" (List.length other))

(* The fold's read-out: the suffix from a cursor, filtered by op, in
   record order. *)
let test_select_from () =
  let log = Oplog.create () in
  List.iter
    (fun op -> Oplog.record log op (Ok Op.Unit))
    [ Op.Stat (p "/a"); Op.Close 1; Op.Lookup (p "/b"); Op.Close 2; Op.Fstat 3; Op.Close 4 ];
  let seqs l = List.map (fun r -> r.Op.seq) l in
  Alcotest.(check (list int)) "reads left out, order kept" [ 1; 3; 5 ]
    (seqs (Oplog.select_from log ~seq:0 (fun op -> not (Op.is_pure_read op))));
  Alcotest.(check (list int)) "from a cursor" [ 3; 5 ]
    (seqs (Oplog.select_from log ~seq:2 (fun op -> not (Op.is_pure_read op))));
  Alcotest.(check (list int)) "nothing past next_seq" []
    (seqs (Oplog.select_from log ~seq:6 (fun _ -> true)))

let test_report_rendering () =
  let d =
    {
      Report.d_seq = 4;
      d_op = Op.Stat (p "/f");
      d_base = Ok (Op.Len 1);
      d_shadow = Ok (Op.Len 2);
    }
  in
  let r =
    {
      Report.r_trigger = Report.Panic { bug = "b"; msg = "m" };
      r_window = 10;
      r_replayed = 8;
      r_skipped = 2;
      r_discrepancies = [ d ];
      r_handoff_blocks = 3;
      r_delegated_sync = true;
      r_seeded = true;
      r_wall_seconds = 0.012;
      r_phases = [ { Report.ph_name = "contained-reboot"; ph_ns = 1_500_000L } ];
      r_outcome = Report.Recovered;
    }
  in
  let s = Format.asprintf "%a" Report.pp_recovery r in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions trigger" true (contains "panic(b)");
  Alcotest.(check bool) "mentions window" true (contains "window=10");
  Alcotest.(check bool) "mentions delegation" true (contains "delegated");
  Alcotest.(check bool) "mentions seeding" true (contains "(seeded)");
  Alcotest.(check bool) "mentions discrepancy" true (contains "discrepancy");
  Alcotest.(check bool) "mentions phase" true (contains "contained-reboot");
  List.iter
    (fun trigger ->
      Alcotest.(check bool) "trigger_to_string nonempty" true
        (String.length (Report.trigger_to_string trigger) > 0))
    [
      Report.Panic { bug = "x"; msg = "" };
      Report.Hang_detected { bug = "x"; msg = "" };
      Report.Validation { context = "c"; msg = "" };
      Report.Warning_storm { bug = "x"; msg = "" };
    ]

(* Growing the window's array must not force a minor collection: an
   [Array.make] of more than 256 words whose initial value sits in the
   minor heap runs one first. *)
let test_growth_no_minor_gc () =
  let log = Oplog.create () in
  let op = Op.Fstat 3 and outcome = Ok Op.Unit in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to 600 do
    Oplog.record log op outcome
  done;
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "window past 512 entries" 600 (Oplog.length log);
  Alcotest.(check int) "minor collections while growing" 0 (after - before)

let () =
  Alcotest.run "rae_oplog"
    [
      ( "oplog",
        [
          Alcotest.test_case "record/entries" `Quick test_record_and_entries;
          Alcotest.test_case "checkpoint" `Quick test_checkpoint_discards_and_snapshots;
          Alcotest.test_case "seq monotonic" `Quick test_seq_monotonic_across_checkpoints;
          Alcotest.test_case "max window" `Quick test_max_window_highwater;
          Alcotest.test_case "entries_from suffix" `Quick test_entries_from_suffix;
          Alcotest.test_case "entries_from across checkpoints" `Quick
            test_entries_from_across_checkpoints;
          Alcotest.test_case "select_from" `Quick test_select_from;
          Alcotest.test_case "growth forces no minor collection" `Quick test_growth_no_minor_gc;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
    ]
