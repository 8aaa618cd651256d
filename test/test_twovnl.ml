(* Tests for the Twovnl facade: sessions over live maintenance, commit,
   no-log rollback, and garbage collection. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Executor = Vnl_query.Executor
module Twovnl = Vnl_core.Twovnl
module Maintenance = Vnl_core.Maintenance

let check = Alcotest.check

let initial_rows =
  [
    Fixtures.base_row "San Jose" "CA" "golf equip" 10 14 96 10000;
    Fixtures.base_row "San Jose" "CA" "golf equip" 10 15 96 1500;
    Fixtures.base_row "Berkeley" "CA" "racquetball" 10 14 96 12000;
    Fixtures.base_row "Novato" "CA" "rollerblades" 10 13 96 8000;
  ]

let fresh ?n () =
  let db = Database.create () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ?n ~name:"DailySales" Fixtures.daily_sales);
  Twovnl.load_initial wh "DailySales" initial_rows;
  (db, wh)

let city_total wh s city =
  let r =
    Twovnl.Session.query wh s
      (Printf.sprintf
         "SELECT SUM(total_sales) FROM DailySales WHERE city = '%s'" city)
  in
  match r.Executor.rows with
  | [ [ Value.Int n ] ] -> n
  | [ [ Value.Null ] ] -> 0
  | _ -> Alcotest.fail "bad shape"

let test_session_sees_loaded_data () =
  let _db, wh = fresh () in
  let s = Twovnl.Session.begin_ wh in
  check Alcotest.int "session vn" 1 (Twovnl.Session.vn s);
  check Alcotest.int "san jose total" 11500 (city_total wh s "San Jose");
  check Alcotest.int "rows" 4 (List.length (Twovnl.Session.read_table wh s "DailySales"))

let test_reader_isolated_from_active_txn () =
  let _db, wh = fresh () in
  let s = Twovnl.Session.begin_ wh in
  let m = Twovnl.Txn.begin_ wh in
  check Alcotest.int "maintenanceVN" 2 (Twovnl.Txn.vn m);
  ignore (Twovnl.Txn.sql m "UPDATE DailySales SET total_sales = total_sales + 1000 WHERE city = 'San Jose'");
  ignore (Twovnl.Txn.sql m "DELETE FROM DailySales WHERE city = 'Berkeley'");
  Twovnl.Txn.insert m ~table:"DailySales"
    [ Value.Str "Fresno"; Value.Str "CA"; Value.Str "tennis"; Value.date_of_mdy 10 16 96;
      Value.Int 300 ];
  (* The uncommitted transaction must be invisible to the session. *)
  check Alcotest.int "unchanged during txn" 11500 (city_total wh s "San Jose");
  check Alcotest.int "berkeley still visible" 12000 (city_total wh s "Berkeley");
  check Alcotest.int "fresno not visible" 0 (city_total wh s "Fresno");
  Twovnl.Txn.commit m;
  (* Still invisible after commit: the session reads version 1. *)
  check Alcotest.int "still isolated after commit" 11500 (city_total wh s "San Jose");
  Alcotest.(check bool) "session still valid" true (Twovnl.Session.is_valid wh s);
  (* A new session sees the new version. *)
  let s2 = Twovnl.Session.begin_ wh in
  check Alcotest.int "new session vn" 2 (Twovnl.Session.vn s2);
  check Alcotest.int "new session sees update" 13500 (city_total wh s2 "San Jose");
  check Alcotest.int "berkeley deleted" 0 (city_total wh s2 "Berkeley");
  check Alcotest.int "fresno inserted" 300 (city_total wh s2 "Fresno")

let test_session_expires_when_next_txn_begins () =
  let _db, wh = fresh () in
  let s = Twovnl.Session.begin_ wh in
  let m1 = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m1 "DELETE FROM DailySales WHERE city = 'Novato'");
  Twovnl.Txn.commit m1;
  Alcotest.(check bool) "valid after one commit" true (Twovnl.Session.is_valid wh s);
  let m2 = Twovnl.Txn.begin_ wh in
  Alcotest.(check bool) "expired once next txn begins" false (Twovnl.Session.is_valid wh s);
  Alcotest.(check bool) "query raises Expired" true
    (try ignore (city_total wh s "San Jose"); false with Twovnl.Expired _ -> true);
  Twovnl.Txn.commit m2

(* The §4.1 check twice: as SQL over the Version relation
   ([Rewrite.session_valid]) and as the engine's arithmetic
   ([Session.is_valid]).  At n = 2 they must agree at every point of a
   session's life, and both must say what the paper says. *)
let test_sql_validity_agrees_with_session () =
  let db, wh = fresh () in
  let s = Twovnl.Session.begin_ wh in
  let expect label want =
    let via_sql = Vnl_core.Rewrite.session_valid db ~session_vn:(Twovnl.Session.vn s) in
    check Alcotest.bool (label ^ ": Session.is_valid") want (Twovnl.Session.is_valid wh s);
    check Alcotest.bool (label ^ ": Rewrite.session_valid") want via_sql
  in
  expect "fresh session" true;
  let m1 = Twovnl.Txn.begin_ wh in
  expect "during the first txn" true;
  Twovnl.Txn.commit m1;
  expect "after one commit" true;
  let m2 = Twovnl.Txn.begin_ wh in
  expect "during the second txn" false;
  Twovnl.Txn.commit m2;
  expect "after two commits" false

let test_single_maintenance_txn () =
  let _db, wh = fresh () in
  let m = Twovnl.Txn.begin_ wh in
  Alcotest.(check bool) "second begin rejected" true
    (try ignore (Twovnl.Txn.begin_ wh); false with Invalid_argument _ -> true);
  Twovnl.Txn.commit m

let test_txn_use_after_commit_rejected () =
  let _db, wh = fresh () in
  let m = Twovnl.Txn.begin_ wh in
  Twovnl.Txn.commit m;
  Alcotest.(check bool) "raises" true
    (try ignore (Twovnl.Txn.sql m "DELETE FROM DailySales"); false
     with Invalid_argument _ -> true)

let current_view wh =
  let s = Twovnl.Session.begin_ wh in
  let rows = Twovnl.Session.read_table wh s "DailySales" in
  Twovnl.Session.end_ wh s;
  List.sort Tuple.compare rows

let test_rollback_restores_visible_state () =
  let _db, wh = fresh () in
  let before = current_view wh in
  let m = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m "UPDATE DailySales SET total_sales = 0 WHERE state = 'CA'");
  ignore (Twovnl.Txn.sql m "DELETE FROM DailySales WHERE city = 'Berkeley'");
  Twovnl.Txn.insert m ~table:"DailySales"
    [ Value.Str "Fresno"; Value.Str "CA"; Value.Str "tennis"; Value.date_of_mdy 10 16 96;
      Value.Int 300 ];
  let reverted = Twovnl.Txn.abort m in
  Alcotest.(check bool) "reverted some tuples" true (reverted >= 4);
  check Alcotest.int "currentVN unchanged" 1 (Twovnl.current_vn wh);
  check Fixtures.base_testable "state restored" before (current_view wh)

let test_rollback_insert_over_delete () =
  let _db, wh = fresh () in
  (* Commit a delete first. *)
  let m1 = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m1 "DELETE FROM DailySales WHERE city = 'Novato'");
  Twovnl.Txn.commit m1;
  let before = current_view wh in
  (* Now a transaction re-inserts the deleted key and aborts. *)
  let m2 = Twovnl.Txn.begin_ wh in
  Twovnl.Txn.insert m2 ~table:"DailySales"
    [ Value.Str "Novato"; Value.Str "CA"; Value.Str "rollerblades"; Value.date_of_mdy 10 13 96;
      Value.Int 999 ];
  ignore (Twovnl.Txn.abort m2);
  check Fixtures.base_testable "deleted key stays deleted" before (current_view wh);
  (* And the warehouse still works: a new transaction can re-insert. *)
  let m3 = Twovnl.Txn.begin_ wh in
  Twovnl.Txn.insert m3 ~table:"DailySales"
    [ Value.Str "Novato"; Value.Str "CA"; Value.Str "rollerblades"; Value.date_of_mdy 10 13 96;
      Value.Int 500 ];
  Twovnl.Txn.commit m3;
  let s = Twovnl.Session.begin_ wh in
  check Alcotest.int "re-inserted" 500 (city_total wh s "Novato")

let test_update_by_key_and_delete_by_key () =
  let _db, wh = fresh () in
  let m = Twovnl.Txn.begin_ wh in
  let key =
    [ Value.Str "Berkeley"; Value.Str "CA"; Value.Str "racquetball"; Value.date_of_mdy 10 14 96 ]
  in
  Alcotest.(check bool) "update hits" true
    (Twovnl.Txn.update_by_key m ~table:"DailySales" ~key ~set:[ ("total_sales", Value.Int 1) ]);
  Alcotest.(check bool) "delete hits" true (Twovnl.Txn.delete_by_key m ~table:"DailySales" ~key);
  Alcotest.(check bool) "second delete misses (logically dead)" false
    (Twovnl.Txn.delete_by_key m ~table:"DailySales" ~key);
  Twovnl.Txn.commit m

let test_gc_reclaims_deleted () =
  let _db, wh = fresh () in
  let m = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m "DELETE FROM DailySales WHERE city = 'San Jose'");
  Twovnl.Txn.commit m;
  let h = Twovnl.handle_exn wh "DailySales" in
  check Alcotest.int "tuples still physical" 4 (Table.tuple_count (Twovnl.table h));
  (* An old session pins the horizon. *)
  let collected = Twovnl.collect_garbage wh in
  check Alcotest.int "no sessions: reclaim both" 2 collected;
  check Alcotest.int "physical count drops" 2 (Table.tuple_count (Twovnl.table h))

let test_gc_respects_active_session () =
  let _db, wh = fresh () in
  let s = Twovnl.Session.begin_ wh in
  (* Session at vn 1; a txn at vn 2 deletes. *)
  let m = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m "DELETE FROM DailySales WHERE city = 'San Jose'");
  Twovnl.Txn.commit m;
  check Alcotest.int "session pins deleted tuples" 0 (Twovnl.collect_garbage wh);
  Twovnl.Session.end_ wh s;
  check Alcotest.int "after session ends" 2 (Twovnl.collect_garbage wh)

let test_gc_preserves_reader_view () =
  let _db, wh = fresh () in
  let m = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m "DELETE FROM DailySales WHERE city = 'Novato'");
  Twovnl.Txn.commit m;
  let s = Twovnl.Session.begin_ wh in
  let before = Twovnl.Session.read_table wh s "DailySales" in
  ignore (Twovnl.collect_garbage wh);
  let after = Twovnl.Session.read_table wh s "DailySales" in
  check Fixtures.base_testable "view unchanged by gc"
    (List.sort Tuple.compare before)
    (List.sort Tuple.compare after)

let test_nvnl_session_survives_two_txns () =
  let _db, wh = fresh ~n:3 () in
  let s = Twovnl.Session.begin_ wh in
  let commit_bump () =
    let m = Twovnl.Txn.begin_ wh in
    ignore
      (Twovnl.Txn.sql m
         "UPDATE DailySales SET total_sales = total_sales + 100 WHERE city = 'San Jose'");
    Twovnl.Txn.commit m
  in
  commit_bump ();
  commit_bump ();
  (* Under 3VNL the engine-level reader still reconstructs version 1 even
     though two maintenance transactions have touched the tuples. *)
  let rows = Twovnl.Session.read_table wh s "DailySales" in
  let total =
    List.fold_left
      (fun acc t ->
        match Tuple.get t 4 with Value.Int n -> acc + n | _ -> acc)
      0 rows
  in
  check Alcotest.int "version-1 totals intact" (11500 + 12000 + 8000) total

let test_2vnl_session_expires_at_second_txn () =
  let _db, wh = fresh () in
  let s = Twovnl.Session.begin_ wh in
  List.iter
    (fun _ ->
      let m = Twovnl.Txn.begin_ wh in
      ignore
        (Twovnl.Txn.sql m
           "UPDATE DailySales SET total_sales = total_sales + 100 WHERE city = 'San Jose'");
      Twovnl.Txn.commit m)
    [ (); () ];
  Alcotest.(check bool) "2VNL session expired" true
    (try ignore (Twovnl.Session.read_table wh s "DailySales"); false
     with Twovnl.Expired _ -> true)

let test_cross_table_consistency () =
  (* Two registered tables maintained in one transaction stay mutually
     consistent for every session (the multi-view warehouse property). *)
  let db = Database.create () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:"A" Fixtures.daily_sales);
  ignore (Twovnl.register_table wh ~name:"B" Fixtures.daily_sales);
  Twovnl.load_initial wh "A" initial_rows;
  Twovnl.load_initial wh "B" initial_rows;
  let s = Twovnl.Session.begin_ wh in
  let totals session name =
    match
      (Twovnl.Session.query wh session (Printf.sprintf "SELECT SUM(total_sales) FROM %s" name))
        .Executor.rows
    with
    | [ [ Value.Int n ] ] -> n
    | _ -> 0
  in
  let m = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m "UPDATE A SET total_sales = total_sales + 100 WHERE city = 'San Jose'");
  (* Mid-transaction: A touched, B not — the session must still see them
     agree (both at the old version). *)
  check Alcotest.int "mid-txn agreement" (totals s "A") (totals s "B");
  ignore (Twovnl.Txn.sql m "UPDATE B SET total_sales = total_sales + 100 WHERE city = 'San Jose'");
  Twovnl.Txn.commit m;
  check Alcotest.int "old session agreement" (totals s "A") (totals s "B");
  let s2 = Twovnl.Session.begin_ wh in
  check Alcotest.int "new session agreement" (totals s2 "A") (totals s2 "B");
  Alcotest.(check bool) "new session sees the change" true (totals s2 "A" > totals s "A")

let suite =
  [
    Alcotest.test_case "session sees loaded data" `Quick test_session_sees_loaded_data;
    Alcotest.test_case "reader isolated from active txn" `Quick
      test_reader_isolated_from_active_txn;
    Alcotest.test_case "session expires at next txn begin" `Quick
      test_session_expires_when_next_txn_begins;
    Alcotest.test_case "SQL validity check = Session.is_valid" `Quick
      test_sql_validity_agrees_with_session;
    Alcotest.test_case "single maintenance txn" `Quick test_single_maintenance_txn;
    Alcotest.test_case "txn use after commit rejected" `Quick test_txn_use_after_commit_rejected;
    Alcotest.test_case "no-log rollback restores state" `Quick test_rollback_restores_visible_state;
    Alcotest.test_case "rollback of insert-over-delete" `Quick test_rollback_insert_over_delete;
    Alcotest.test_case "update/delete by key" `Quick test_update_by_key_and_delete_by_key;
    Alcotest.test_case "gc reclaims deleted tuples" `Quick test_gc_reclaims_deleted;
    Alcotest.test_case "gc respects active sessions" `Quick test_gc_respects_active_session;
    Alcotest.test_case "gc preserves reader views" `Quick test_gc_preserves_reader_view;
    Alcotest.test_case "3VNL session survives two txns" `Quick test_nvnl_session_survives_two_txns;
    Alcotest.test_case "2VNL session expires at second txn" `Quick
      test_2vnl_session_expires_at_second_txn;
    Alcotest.test_case "cross-table consistency in one txn" `Quick
      test_cross_table_consistency;
  ]
