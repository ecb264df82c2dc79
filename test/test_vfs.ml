(* Tests for rae_vfs: errno, types, paths, the operation AST. *)

open Rae_vfs

let path_testable = Alcotest.testable Path.pp Path.equal

(* ---- Errno ---- *)

let test_errno_strings () =
  List.iter
    (fun e ->
      let s = Errno.to_string e in
      Alcotest.(check bool) "uppercase E-code" true (String.length s > 1 && s.[0] = 'E'))
    Errno.all;
  Alcotest.(check int) "all distinct" (List.length Errno.all)
    (List.length (List.sort_uniq compare (List.map Errno.to_string Errno.all)))

(* ---- Path parsing ---- *)

let ok s = match Path.parse s with Ok p -> p | Error e -> Alcotest.failf "parse %S: %a" s Path.pp_error e

let test_parse_basic () =
  Alcotest.check path_testable "root" [] (ok "/");
  Alcotest.check path_testable "simple" [ "a"; "b" ] (ok "/a/b");
  Alcotest.check path_testable "trailing slash" [ "a" ] (ok "/a/");
  Alcotest.check path_testable "double slash" [ "a"; "b" ] (ok "/a//b");
  Alcotest.check path_testable "dot" [ "a"; "b" ] (ok "/a/./b");
  Alcotest.check path_testable "dotdot" [ "b" ] (ok "/a/../b");
  Alcotest.check path_testable "dotdot at root" [ "b" ] (ok "/../b");
  Alcotest.check path_testable "all dots" [] (ok "/a/..")

let test_parse_errors () =
  let is_err s = match Path.parse s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "relative" true (is_err "a/b");
  Alcotest.(check bool) "empty" true (is_err "");
  Alcotest.(check bool) "NUL in component" true (is_err "/a\000b");
  Alcotest.(check bool) "overlong component" true (is_err ("/" ^ String.make 256 'x'))

let test_parse_exn () =
  Alcotest.(check bool) "ok case" true (Path.parse_exn "/x" = [ "x" ]);
  (match Path.parse_exn "relative" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

let test_component_ok () =
  Alcotest.(check bool) "normal" true (Path.component_ok "file.txt");
  Alcotest.(check bool) "max length" true (Path.component_ok (String.make 255 'a'));
  Alcotest.(check bool) "too long" false (Path.component_ok (String.make 256 'a'));
  Alcotest.(check bool) "empty" false (Path.component_ok "");
  Alcotest.(check bool) "dot" false (Path.component_ok ".");
  Alcotest.(check bool) "dotdot" false (Path.component_ok "..");
  Alcotest.(check bool) "slash" false (Path.component_ok "a/b");
  Alcotest.(check bool) "nul" false (Path.component_ok "a\000")

let test_to_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Path.to_string (ok s)))
    [ "/"; "/a"; "/a/b/c"; "/deep/ly/nest/ed/path" ]

let test_split_last () =
  Alcotest.(check (option (pair path_testable Alcotest.string)))
    "root has no parent" None (Path.split_last []);
  Alcotest.(check (option (pair path_testable Alcotest.string)))
    "basic" (Some ([ "a" ], "b"))
    (Path.split_last [ "a"; "b" ])

let prop_parse_normalizes =
  (* to_string ∘ parse is idempotent: reparsing a printed path is identity. *)
  let gen_component =
    QCheck2.Gen.(map (fun s -> if Path.component_ok s then s else "c") (string_size (int_range 1 8)))
  in
  QCheck2.Test.make ~name:"parse/print roundtrip" ~count:300
    QCheck2.Gen.(list_size (int_bound 6) gen_component)
    (fun components ->
      let p1 = Path.parse_exn ("/" ^ String.concat "/" components) in
      let p2 = Path.parse_exn (Path.to_string p1) in
      Path.equal p1 p2)

(* ---- Types ---- *)

let test_kind_codes () =
  List.iter
    (fun k -> Alcotest.(check bool) "roundtrip" true (Types.kind_of_code (Types.kind_code k) = Some k))
    [ Types.Regular; Types.Directory; Types.Symlink ];
  Alcotest.(check bool) "0 invalid" true (Types.kind_of_code 0 = None);
  Alcotest.(check bool) "4 invalid" true (Types.kind_of_code 4 = None)

let mk_stat ?(mtime = 5L) () =
  {
    Types.st_ino = 3;
    st_kind = Types.Regular;
    st_size = 100;
    st_nlink = 1;
    st_mode = 0o644;
    st_mtime = mtime;
    st_ctime = mtime;
  }

let test_stat_equal () =
  let a = mk_stat () in
  Alcotest.(check bool) "reflexive" true (Types.stat_equal a a);
  Alcotest.(check bool) "time differs" false (Types.stat_equal a (mk_stat ~mtime:6L ()));
  Alcotest.(check bool) "ignore_times" true
    (Types.stat_equal ~ignore_times:true a (mk_stat ~mtime:6L ()))

(* ---- Op ---- *)

let sample_ops =
  let p = Path.parse_exn in
  [
    Op.Create (p "/f", 0o644);
    Op.Mkdir (p "/d", 0o755);
    Op.Unlink (p "/f");
    Op.Rmdir (p "/d");
    Op.Open (p "/f", Types.flags_create);
    Op.Close 3;
    Op.Pread (3, 0, 10);
    Op.Pwrite (3, 0, "hello");
    Op.Lookup (p "/f");
    Op.Stat (p "/f");
    Op.Fstat 3;
    Op.Readdir (p "/");
    Op.Rename (p "/a", p "/b");
    Op.Truncate (p "/f", 10);
    Op.Link (p "/f", p "/g");
    Op.Symlink ("/f", p "/l");
    Op.Readlink (p "/l");
    Op.Chmod (p "/f", 0o600);
    Op.Fsync 3;
    Op.Sync;
  ]

let test_op_kinds_cover () =
  let kinds = List.sort_uniq compare (List.map Op.kind sample_ops) in
  Alcotest.(check int) "every op kind exercised" (List.length Op.all_kinds) (List.length kinds)

let test_is_mutation () =
  let p = Path.parse_exn in
  Alcotest.(check bool) "create mutates" true (Op.is_mutation (Op.Create (p "/f", 0o644)));
  Alcotest.(check bool) "pread does not" false (Op.is_mutation (Op.Pread (0, 0, 1)));
  Alcotest.(check bool) "open rd does not" false (Op.is_mutation (Op.Open (p "/f", Types.flags_ro)));
  Alcotest.(check bool) "open creat does" true (Op.is_mutation (Op.Open (p "/f", Types.flags_create)));
  Alcotest.(check bool) "sync is sync" true (Op.is_sync Op.Sync);
  Alcotest.(check bool) "fsync is sync" true (Op.is_sync (Op.Fsync 1));
  Alcotest.(check bool) "close not sync" false (Op.is_sync (Op.Close 1))

(* The warm fold's filter: exactly the six read kinds, none of which is a
   mutation or a sync.  A read-only open and a close are not mutations,
   but they move the descriptor table, so they are not pure reads. *)
let test_is_pure_read () =
  let p = Path.parse_exn in
  let pure = List.filter Op.is_pure_read (Op.Open (p "/f", Types.flags_ro) :: sample_ops) in
  Alcotest.(check (list string)) "the six read kinds"
    [ "pread"; "lookup"; "stat"; "fstat"; "readdir"; "readlink" ]
    (List.map (fun op -> Op.kind_to_string (Op.kind op)) pure);
  List.iter
    (fun op ->
      Alcotest.(check bool) (Op.to_string op ^ " is no mutation") false (Op.is_mutation op);
      Alcotest.(check bool) (Op.to_string op ^ " is no sync") false (Op.is_sync op))
    pure

let test_op_pp_total () =
  List.iter
    (fun op ->
      let s = Op.to_string op in
      Alcotest.(check bool) (Printf.sprintf "pp of %s nonempty" s) true (String.length s > 0))
    sample_ops

let test_value_equal () =
  Alcotest.(check bool) "data eq" true (Op.value_equal (Op.Data "x") (Op.Data "x"));
  Alcotest.(check bool) "data neq" false (Op.value_equal (Op.Data "x") (Op.Data "y"));
  Alcotest.(check bool) "cross-constructor" false (Op.value_equal (Op.Len 1) (Op.Fd 1));
  Alcotest.(check bool) "names order matters" false
    (Op.value_equal (Op.Names [ "a"; "b" ]) (Op.Names [ "b"; "a" ]));
  let st1 = Op.St (mk_stat ()) and st2 = Op.St (mk_stat ~mtime:9L ()) in
  Alcotest.(check bool) "stat times ignored" true (Op.value_equal ~ignore_times:true st1 st2)

let test_outcome_equal () =
  Alcotest.(check bool) "ok vs error" false
    (Op.outcome_equal (Ok Op.Unit) (Error Errno.EIO));
  Alcotest.(check bool) "error eq" true
    (Op.outcome_equal (Error Errno.ENOENT) (Error Errno.ENOENT));
  Alcotest.(check bool) "error neq" false
    (Op.outcome_equal (Error Errno.ENOENT) (Error Errno.EEXIST))

(* Dispatch: a minimal FS stub to verify op→function mapping. *)
module Stub = struct
  type t = { mutable trace : string list }

  let record t name = t.trace <- name :: t.trace

  let create t _ ~mode:_ = record t "create"; Ok 1
  let mkdir t _ ~mode:_ = record t "mkdir"; Ok 2
  let unlink t _ = record t "unlink"; Ok ()
  let rmdir t _ = record t "rmdir"; Ok ()
  let openf t _ _ = record t "openf"; Ok 3
  let close t _ = record t "close"; Ok ()
  let pread t _ ~off:_ ~len:_ = record t "pread"; Ok "data"
  let pwrite t _ ~off:_ s = record t "pwrite"; Ok (String.length s)
  let lookup t _ = record t "lookup"; Ok 1
  let stat t _ = record t "stat"; Ok (mk_stat ())
  let fstat t _ = record t "fstat"; Ok (mk_stat ())
  let readdir t _ = record t "readdir"; Ok [ "x" ]
  let rename t _ _ = record t "rename"; Ok ()
  let truncate t _ ~size:_ = record t "truncate"; Ok ()
  let link t _ _ = record t "link"; Ok ()
  let symlink t ~target:_ _ = record t "symlink"; Ok 4
  let readlink t _ = record t "readlink"; Ok "/t"
  let chmod t _ ~mode:_ = record t "chmod"; Ok ()
  let fsync t _ = record t "fsync"; Ok ()
  let sync t = record t "sync"; Ok ()
end

module SD = Fs_intf.Dispatch (Stub)

let test_dispatch_covers_all () =
  let stub = { Stub.trace = [] } in
  List.iter (fun op -> ignore (SD.exec stub op)) sample_ops;
  Alcotest.(check int) "one call per op" (List.length sample_ops) (List.length stub.Stub.trace);
  Alcotest.(check int) "all distinct functions" (List.length sample_ops)
    (List.length (List.sort_uniq compare stub.Stub.trace))

let test_dispatch_values () =
  let stub = { Stub.trace = [] } in
  let p = Path.parse_exn in
  Alcotest.(check bool) "create returns ino" true
    (SD.exec stub (Op.Create (p "/f", 0o644)) = Ok (Op.Ino 1));
  Alcotest.(check bool) "pwrite returns len" true
    (SD.exec stub (Op.Pwrite (0, 0, "abcde")) = Ok (Op.Len 5));
  Alcotest.(check bool) "readdir returns names" true
    (SD.exec stub (Op.Readdir (p "/")) = Ok (Op.Names [ "x" ]))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_vfs"
    [
      ("errno", [ Alcotest.test_case "codes well-formed" `Quick test_errno_strings ]);
      ( "path",
        [
          Alcotest.test_case "parse basics" `Quick test_parse_basic;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "parse_exn" `Quick test_parse_exn;
          Alcotest.test_case "component_ok" `Quick test_component_ok;
          Alcotest.test_case "to_string roundtrip" `Quick test_to_string_roundtrip;
          Alcotest.test_case "split_last" `Quick test_split_last;
          q prop_parse_normalizes;
        ] );
      ( "types",
        [
          Alcotest.test_case "kind codes" `Quick test_kind_codes;
          Alcotest.test_case "stat equality" `Quick test_stat_equal;
        ] );
      ( "op",
        [
          Alcotest.test_case "kinds cover" `Quick test_op_kinds_cover;
          Alcotest.test_case "is_mutation" `Quick test_is_mutation;
          Alcotest.test_case "is_pure_read" `Quick test_is_pure_read;
          Alcotest.test_case "pp total" `Quick test_op_pp_total;
          Alcotest.test_case "value equality" `Quick test_value_equal;
          Alcotest.test_case "outcome equality" `Quick test_outcome_equal;
          Alcotest.test_case "dispatch covers all ops" `Quick test_dispatch_covers_all;
          Alcotest.test_case "dispatch value mapping" `Quick test_dispatch_values;
        ] );
    ]
