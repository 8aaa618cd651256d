(* Tests for the 2VNL core: operations, schema extension, version state,
   reader extraction (Table 1), and maintenance decision tables (Tables 2-4),
   checked against the paper's worked examples. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Op = Vnl_core.Op
module Schema_ext = Vnl_core.Schema_ext
module Version_state = Vnl_core.Version_state
module Reader = Vnl_core.Reader
module Maintenance = Vnl_core.Maintenance
module Expiry = Vnl_core.Expiry

let check = Alcotest.check

(* ---------- Op: net effects (§3.3) ---------- *)

let test_op_combine_same_txn () =
  Alcotest.(check bool) "insert+update=insert" true
    (Op.combine_same_txn ~previous:Op.Insert Op.Update = `Becomes Op.Insert);
  Alcotest.(check bool) "insert+delete=physical delete" true
    (Op.combine_same_txn ~previous:Op.Insert Op.Delete = `Physically_delete);
  Alcotest.(check bool) "update+update=update" true
    (Op.combine_same_txn ~previous:Op.Update Op.Update = `Becomes Op.Update);
  Alcotest.(check bool) "update+delete=delete" true
    (Op.combine_same_txn ~previous:Op.Update Op.Delete = `Becomes Op.Delete);
  Alcotest.(check bool) "delete+insert=update" true
    (Op.combine_same_txn ~previous:Op.Delete Op.Insert = `Becomes Op.Update)

let expect_impossible f =
  Alcotest.(check bool) "impossible" true (try ignore (f ()); false with Op.Impossible _ -> true)

let test_op_impossible_cells () =
  expect_impossible (fun () -> Op.combine_same_txn ~previous:Op.Insert Op.Insert);
  expect_impossible (fun () -> Op.combine_same_txn ~previous:Op.Update Op.Insert);
  expect_impossible (fun () -> Op.combine_same_txn ~previous:Op.Delete Op.Update);
  expect_impossible (fun () -> Op.combine_same_txn ~previous:Op.Delete Op.Delete);
  expect_impossible (fun () -> Op.check_older_txn ~previous:Op.Insert Op.Insert);
  expect_impossible (fun () -> Op.check_older_txn ~previous:Op.Update Op.Insert);
  expect_impossible (fun () -> Op.check_older_txn ~previous:Op.Delete Op.Update);
  expect_impossible (fun () -> Op.check_older_txn ~previous:Op.Delete Op.Delete)

let test_op_older_txn_allowed () =
  Op.check_older_txn ~previous:Op.Delete Op.Insert;
  Op.check_older_txn ~previous:Op.Insert Op.Update;
  Op.check_older_txn ~previous:Op.Update Op.Delete

let test_op_value_roundtrip () =
  List.iter
    (fun op -> Alcotest.(check bool) "roundtrip" true (Op.equal op (Op.of_value (Op.to_value op))))
    Op.all

(* ---------- Schema extension (§3.1, Figure 3) ---------- *)

let test_extend_figure3_widths () =
  let ext = Schema_ext.extend Fixtures.daily_sales in
  check Alcotest.int "base 42 bytes" 42 (Schema.width Fixtures.daily_sales);
  check Alcotest.int "extended 51 bytes" 51 (Schema.width (Schema_ext.extended ext));
  check Alcotest.int "overhead 9 bytes" 9 (Schema_ext.width_overhead ext);
  Alcotest.(check bool) "~21% overhead (paper: ~20%)" true
    (abs_float (Schema_ext.overhead_ratio ext -. 0.214) < 0.01)

let test_extend_names_2vnl () =
  let ext = Schema_ext.extend Fixtures.daily_sales in
  check (Alcotest.list Alcotest.string) "figure 3 order"
    [ "tupleVN"; "operation"; "city"; "state"; "product_line"; "date"; "total_sales";
      "pre_total_sales" ]
    (Schema.names (Schema_ext.extended ext))

let test_extend_key_preserved () =
  let ext = Schema_ext.extend Fixtures.daily_sales in
  let e = Schema_ext.extended ext in
  check (Alcotest.list Alcotest.int) "key = group-by attrs" [ 2; 3; 4; 5 ] (Schema.key_indices e)

let test_extend_n4_layout () =
  let ext = Schema_ext.extend ~n:4 Fixtures.daily_sales in
  check Alcotest.int "slots" 3 (Schema_ext.slots ext);
  check Alcotest.int "slot1 vn at 0" 0 (Schema_ext.tuple_vn_index ext ~slot:1);
  check Alcotest.int "slot2 vn after pre1" 8 (Schema_ext.tuple_vn_index ext ~slot:2);
  check Alcotest.int "slot3 vn" 11 (Schema_ext.tuple_vn_index ext ~slot:3);
  let names = Schema.names (Schema_ext.extended ext) in
  Alcotest.(check bool) "has tupleVN3" true (List.mem "tupleVN3" names);
  Alcotest.(check bool) "has pre3_total_sales" true (List.mem "pre3_total_sales" names);
  (* Each extra slot costs 4 (vn) + 1 (op) + 4 (pre total_sales) = 9 bytes. *)
  check Alcotest.int "width grows linearly" (42 + (3 * 9))
    (Schema.width (Schema_ext.extended ext))

let test_extend_rejects_reserved () =
  let bad = Schema.make [ Schema.attr "tupleVN" Dtype.Int ] in
  Alcotest.(check bool) "raises" true
    (try ignore (Schema_ext.extend bad); false with Invalid_argument _ -> true)

let test_extend_rejects_n1 () =
  Alcotest.(check bool) "raises" true
    (try ignore (Schema_ext.extend ~n:1 Fixtures.daily_sales); false
     with Invalid_argument _ -> true)

let test_pre_index_non_updatable_rejected () =
  let ext = Schema_ext.extend Fixtures.daily_sales in
  Alcotest.(check bool) "raises" true
    (try ignore (Schema_ext.pre_index ext ~slot:1 0); false with Invalid_argument _ -> true)

(* ---------- Version state (§4) ---------- *)

let test_version_state_lifecycle () =
  let db = Database.create () in
  let vs = Version_state.install db in
  check Alcotest.int "initial vn" 1 (Version_state.current_vn vs);
  Alcotest.(check bool) "inactive" false (Version_state.maintenance_active vs);
  let vn = 1 + Version_state.begin_round vs ~count:1 in
  check Alcotest.int "maintenanceVN" 2 vn;
  Alcotest.(check bool) "active" true (Version_state.maintenance_active vs);
  check Alcotest.int "currentVN unchanged while active" 1 (Version_state.current_vn vs);
  Version_state.publish vs ~vn;
  check Alcotest.int "published" 2 (Version_state.current_vn vs);
  Alcotest.(check bool) "inactive again" false (Version_state.maintenance_active vs)

let test_version_state_single_writer () =
  let db = Database.create () in
  let vs = Version_state.install db in
  ignore (Version_state.begin_round vs ~count:1);
  Alcotest.(check bool) "second begin rejected" true
    (try ignore (Version_state.begin_round vs ~count:1); false with Invalid_argument _ -> true)

let test_version_state_abort () =
  let db = Database.create () in
  let vs = Version_state.install db in
  ignore (Version_state.begin_round vs ~count:1);
  Version_state.abort_maintenance vs;
  check Alcotest.int "vn unchanged" 1 (Version_state.current_vn vs);
  Alcotest.(check bool) "inactive" false (Version_state.maintenance_active vs)

let test_version_state_is_queryable () =
  (* §4: the state lives in an ordinary single-tuple relation. *)
  let db = Database.create () in
  let _vs = Version_state.install db in
  let r = Fixtures.sql db "SELECT currentVN, maintenanceActive FROM Version" in
  match r.Vnl_query.Executor.rows with
  | [ [ Value.Int 1; Value.Bool false ] ] -> ()
  | _ -> Alcotest.fail "Version relation not queryable"

(* ---------- Reader extraction: Figure 4 / Example 3.2 / Table 1 ---------- *)

let session3_view () =
  let _db, ext, table = Fixtures.figure4_table () in
  Reader.visible_relation ext ~session_vn:3 table

let test_example_3_2 () =
  (* The paper's expected answer for sessionVN = 3. *)
  let expected =
    [
      Fixtures.base_row "San Jose" "CA" "golf equip" 10 14 96 10000;
      Fixtures.base_row "Berkeley" "CA" "racquetball" 10 14 96 10000;
      Fixtures.base_row "Novato" "CA" "rollerblades" 10 13 96 8000;
    ]
  in
  check Fixtures.base_testable "Example 3.2 view"
    (List.sort Tuple.compare expected)
    (List.sort Tuple.compare (session3_view ()))

let test_reader_session4_sees_current () =
  let _db, ext, table = Fixtures.figure4_table () in
  let view = Reader.visible_relation ext ~session_vn:4 table in
  (* Session 4: Novato deleted (ignore), Berkeley current 12,000, both San
     Jose rows current. *)
  let expected =
    [
      Fixtures.base_row "San Jose" "CA" "golf equip" 10 14 96 10000;
      Fixtures.base_row "San Jose" "CA" "golf equip" 10 15 96 1500;
      Fixtures.base_row "Berkeley" "CA" "racquetball" 10 14 96 12000;
    ]
  in
  check Fixtures.base_testable "session 4 view"
    (List.sort Tuple.compare expected)
    (List.sort Tuple.compare view)

let test_reader_expiry_per_tuple () =
  let _db, ext, table = Fixtures.figure4_table () in
  Alcotest.(check bool) "session 2 expired by vn-4 tuples" true
    (try ignore (Reader.visible_relation ext ~session_vn:2 table); false
     with Reader.Session_expired _ -> true)

let test_reader_table1_cases () =
  let ext = Schema_ext.extend Fixtures.daily_sales in
  let tuple vn op pre =
    Fixtures.ext_row ext vn op "X" "CA" "pl" 1 1 99 100 pre
  in
  (* Current version: insert/update read current; delete ignored. *)
  (match Reader.extract ext ~session_vn:5 (tuple 5 Op.Insert Value.Null) with
  | Some t -> check Alcotest.string "current insert" "100" (Value.to_string (Tuple.get t 4))
  | None -> Alcotest.fail "insert should be visible");
  (match Reader.extract ext ~session_vn:5 (tuple 5 Op.Update (Value.Int 50)) with
  | Some t -> check Alcotest.string "current update" "100" (Value.to_string (Tuple.get t 4))
  | None -> Alcotest.fail "update should be visible");
  Alcotest.(check bool) "current delete ignored" true
    (Reader.extract ext ~session_vn:5 (tuple 5 Op.Delete (Value.Int 50)) = None);
  (* Pre-update version: insert ignored; update/delete read pre. *)
  Alcotest.(check bool) "pre insert ignored" true
    (Reader.extract ext ~session_vn:4 (tuple 5 Op.Insert Value.Null) = None);
  (match Reader.extract ext ~session_vn:4 (tuple 5 Op.Update (Value.Int 50)) with
  | Some t -> check Alcotest.string "pre update" "50" (Value.to_string (Tuple.get t 4))
  | None -> Alcotest.fail "pre of update should be visible");
  (match Reader.extract ext ~session_vn:4 (tuple 5 Op.Delete (Value.Int 50)) with
  | Some t -> check Alcotest.string "pre delete" "50" (Value.to_string (Tuple.get t 4))
  | None -> Alcotest.fail "pre of delete should be visible");
  (* Expired. *)
  Alcotest.(check bool) "expired" true
    (try ignore (Reader.extract ext ~session_vn:3 (tuple 5 Op.Update (Value.Int 50))); false
     with Reader.Session_expired _ -> true)

let test_reader_global_expiry_check () =
  Alcotest.(check bool) "current" false
    (Reader.expired_by_state ~session_vn:5 ~current_vn:5 ~maintenance_active:true);
  Alcotest.(check bool) "previous, quiescent" false
    (Reader.expired_by_state ~session_vn:4 ~current_vn:5 ~maintenance_active:false);
  Alcotest.(check bool) "previous, active" true
    (Reader.expired_by_state ~session_vn:4 ~current_vn:5 ~maintenance_active:true);
  Alcotest.(check bool) "two behind" true
    (Reader.expired_by_state ~session_vn:3 ~current_vn:5 ~maintenance_active:false)

(* ---------- Maintenance: Figure 5 -> Figure 6 ---------- *)

let key city pl m d y =
  [ Value.Str city; Value.Str "CA"; Value.Str pl; Value.date_of_mdy m d y ]

let run_figure5 () =
  let _db, ext, table = Fixtures.figure4_table () in
  let vn = 5 in
  let stats = Maintenance.fresh_stats () in
  ignore
    (Maintenance.apply_insert ~stats ext table ~vn
       (Fixtures.base_row "San Jose" "CA" "golf equip" 10 16 96 11000));
  ignore
    (Maintenance.apply_insert ~stats ext table ~vn
       (Fixtures.base_row "Novato" "CA" "rollerblades" 10 13 96 6000));
  (match Table.find_by_key table (key "San Jose" "golf equip" 10 14 96) with
  | Some (rid, _) -> Maintenance.apply_update ~stats ext table ~vn rid [ (4, Value.Int 10200) ]
  | None -> Alcotest.fail "update target missing");
  (match Table.find_by_key table (key "Berkeley" "racquetball" 10 14 96) with
  | Some (rid, _) -> Maintenance.apply_delete ~stats ext table ~vn rid
  | None -> Alcotest.fail "delete target missing");
  (ext, table, stats)

let test_figure6 () =
  let ext, table, _ = run_figure5 () in
  let got =
    List.map (fun (_, t) -> Fixtures.summarize_ext ext t) (Table.to_list table)
  in
  check Fixtures.summary_testable "Figure 6 state"
    (Fixtures.sort_summaries Fixtures.figure6_expected)
    (Fixtures.sort_summaries got)

let test_figure5_physical_ops () =
  let _, _, stats = run_figure5 () in
  check Alcotest.int "logical inserts" 2 stats.Maintenance.logical_inserts;
  check Alcotest.int "logical updates" 1 stats.Maintenance.logical_updates;
  check Alcotest.int "logical deletes" 1 stats.Maintenance.logical_deletes;
  (* Novato insert hits the deleted tuple: physical update, not insert. *)
  check Alcotest.int "physical inserts" 1 stats.Maintenance.physical_inserts;
  check Alcotest.int "physical updates" 3 stats.Maintenance.physical_updates;
  check Alcotest.int "physical deletes" 0 stats.Maintenance.physical_deletes

let test_figure6_reader_session4_still_consistent () =
  (* During/after the vn-5 transaction, a session-4 reader must still see
     the vn-4 state. *)
  let ext, table, _ = run_figure5 () in
  let view = Reader.visible_relation ext ~session_vn:4 table in
  let expected =
    [
      Fixtures.base_row "San Jose" "CA" "golf equip" 10 14 96 10000;
      Fixtures.base_row "San Jose" "CA" "golf equip" 10 15 96 1500;
      Fixtures.base_row "Berkeley" "CA" "racquetball" 10 14 96 12000;
    ]
  in
  check Fixtures.base_testable "session 4 unchanged by vn 5"
    (List.sort Tuple.compare expected)
    (List.sort Tuple.compare view)

let test_figure6_reader_session5_sees_new_state () =
  let ext, table, _ = run_figure5 () in
  let view = Reader.visible_relation ext ~session_vn:5 table in
  let expected =
    [
      Fixtures.base_row "San Jose" "CA" "golf equip" 10 14 96 10200;
      Fixtures.base_row "San Jose" "CA" "golf equip" 10 15 96 1500;
      Fixtures.base_row "Novato" "CA" "rollerblades" 10 13 96 6000;
      Fixtures.base_row "San Jose" "CA" "golf equip" 10 16 96 11000;
    ]
  in
  check Fixtures.base_testable "session 5 sees vn 5"
    (List.sort Tuple.compare expected)
    (List.sort Tuple.compare view)

(* ---------- Decision-table conformance: same-transaction combinations ---------- *)

let fresh_ext_table () =
  let db = Database.create () in
  let ext = Schema_ext.extend Fixtures.daily_sales in
  let table = Database.create_table db "DailySales" (Schema_ext.extended ext) in
  (ext, table)

let sj_key = key "San Jose" "golf equip" 10 14 96

let sj_row sales = Fixtures.base_row "San Jose" "CA" "golf equip" 10 14 96 sales

let test_same_txn_insert_then_update () =
  let ext, table = fresh_ext_table () in
  let vn = 2 in
  let rid = Maintenance.apply_insert ext table ~vn (sj_row 100) in
  Maintenance.apply_update ext table ~vn rid [ (4, Value.Int 200) ];
  match Table.get table rid with
  | Some t ->
    let vn', op, _, _, _, sales, pre = Fixtures.summarize_ext ext t in
    check Alcotest.int "vn" 2 vn';
    check Alcotest.string "net effect insert" "insert" op;
    Alcotest.(check bool) "current 200" true (Value.equal sales (Value.Int 200));
    Alcotest.(check bool) "pre stays null" true (Value.is_null pre)
  | None -> Alcotest.fail "tuple missing"

let test_same_txn_insert_then_delete_physical () =
  let ext, table = fresh_ext_table () in
  let vn = 2 in
  let rid = Maintenance.apply_insert ext table ~vn (sj_row 100) in
  Maintenance.apply_delete ext table ~vn rid;
  Alcotest.(check bool) "physically gone" true (Table.get table rid = None);
  check Alcotest.int "count 0" 0 (Table.tuple_count table)

let test_same_txn_update_then_delete () =
  let ext, table = fresh_ext_table () in
  (* Tuple committed at vn 2 with 100; txn 3 updates then deletes. *)
  let rid = Maintenance.apply_insert ext table ~vn:2 (sj_row 100) in
  Maintenance.apply_update ext table ~vn:3 rid [ (4, Value.Int 200) ];
  Maintenance.apply_delete ext table ~vn:3 rid;
  match Table.get table rid with
  | Some t ->
    let _, op, _, _, _, _, pre = Fixtures.summarize_ext ext t in
    check Alcotest.string "net delete" "delete" op;
    Alcotest.(check bool) "pre = committed 100" true (Value.equal pre (Value.Int 100))
  | None -> Alcotest.fail "logical delete must not remove the tuple"

let test_same_txn_delete_then_insert_is_update () =
  let ext, table = fresh_ext_table () in
  let rid = Maintenance.apply_insert ext table ~vn:2 (sj_row 100) in
  Maintenance.apply_delete ext table ~vn:3 rid;
  ignore (Maintenance.apply_insert ext table ~vn:3 (sj_row 500));
  match Table.get table rid with
  | Some t ->
    let vn', op, _, _, _, sales, pre = Fixtures.summarize_ext ext t in
    check Alcotest.int "vn 3" 3 vn';
    check Alcotest.string "net update" "update" op;
    Alcotest.(check bool) "current 500" true (Value.equal sales (Value.Int 500));
    (* Pre keeps the committed value so session-2 readers still see 100. *)
    Alcotest.(check bool) "pre 100" true (Value.equal pre (Value.Int 100))
  | None -> Alcotest.fail "tuple missing"

let test_older_txn_insert_over_delete () =
  let ext, table = fresh_ext_table () in
  let rid = Maintenance.apply_insert ext table ~vn:2 (sj_row 100) in
  Maintenance.apply_delete ext table ~vn:3 rid;
  (* A later transaction re-inserts the same key: Table 2 row 1. *)
  ignore (Maintenance.apply_insert ext table ~vn:4 (sj_row 700));
  check Alcotest.int "still one physical tuple" 1 (Table.tuple_count table);
  match Table.get table rid with
  | Some t ->
    let vn', op, _, _, _, sales, pre = Fixtures.summarize_ext ext t in
    check Alcotest.int "vn 4" 4 vn';
    check Alcotest.string "op insert" "insert" op;
    Alcotest.(check bool) "current 700" true (Value.equal sales (Value.Int 700));
    Alcotest.(check bool) "pre nulled" true (Value.is_null pre)
  | None -> Alcotest.fail "tuple missing"

let test_update_of_deleted_is_impossible () =
  let ext, table = fresh_ext_table () in
  let rid = Maintenance.apply_insert ext table ~vn:2 (sj_row 100) in
  Maintenance.apply_delete ext table ~vn:3 rid;
  expect_impossible (fun () ->
      Maintenance.apply_update ext table ~vn:4 rid [ (4, Value.Int 1) ]);
  expect_impossible (fun () -> Maintenance.apply_delete ext table ~vn:4 rid)

let test_update_non_updatable_rejected () =
  let ext, table = fresh_ext_table () in
  let rid = Maintenance.apply_insert ext table ~vn:2 (sj_row 100) in
  Alcotest.(check bool) "raises" true
    (try
       Maintenance.apply_update ext table ~vn:3 rid [ (0, Value.Str "Oakland") ];
       false
     with Invalid_argument _ -> true)

(* ---------- Regression: the Table 4 row-2 correction (DESIGN.md §6) ----------

   An insert over a logically deleted key followed by a delete in the same
   transaction must NOT physically remove the record: it still carries the
   history readers of older versions need.  The paper's row 2 ("previous op
   insert -> physically delete") assumes a fresh insert. *)

let test_insert_over_delete_then_delete_2vnl () =
  let ext, table = fresh_ext_table () in
  let rid = Maintenance.apply_insert ext table ~vn:2 (sj_row 100) in
  Maintenance.apply_delete ext table ~vn:3 rid;
  (* Transaction 4 re-inserts the key, then deletes it again. *)
  let over_deleted = ref [] in
  let on_over_delete r = over_deleted := r :: !over_deleted in
  ignore (Maintenance.apply_insert ~on_over_delete ext table ~vn:4 (sj_row 500));
  let was r = List.exists (Vnl_storage.Heap_file.rid_equal r) !over_deleted in
  Maintenance.apply_delete ~was_insert_over_delete:was ext table ~vn:4 rid;
  (* The record must survive physically, re-marked deleted. *)
  (match Table.get table rid with
  | None -> Alcotest.fail "record was physically deleted, losing history"
  | Some t ->
    check Alcotest.string "net delete" "delete"
      (Vnl_core.Op.to_string (Schema_ext.operation ext ~slot:1 t)));
  (* Reader semantics: session 3 (after the committed delete) ignores it;
     session 2 would have read the pre-delete value but is expired under
     2VNL -- the stamp keeps it invisible to every valid session. *)
  Alcotest.(check bool) "session 3 ignores" true
    (Reader.extract ext ~session_vn:3 (Option.get (Table.get table rid)) = None);
  Alcotest.(check bool) "session 4 ignores" true
    (Reader.extract ext ~session_vn:4 (Option.get (Table.get table rid)) = None)

let test_insert_over_delete_then_delete_nvnl () =
  let db = Database.create () in
  let ext = Schema_ext.extend ~n:3 Fixtures.daily_sales in
  let table = Database.create_table db "T" (Schema_ext.extended ext) in
  let rid = Maintenance.apply_insert ext table ~vn:2 (sj_row 100) in
  Maintenance.apply_delete ext table ~vn:3 rid;
  let over_deleted = ref [] in
  let on_over_delete r = over_deleted := r :: !over_deleted in
  ignore (Maintenance.apply_insert ~on_over_delete ext table ~vn:4 (sj_row 500));
  let was r = List.exists (Vnl_storage.Heap_file.rid_equal r) !over_deleted in
  Maintenance.apply_delete ~was_insert_over_delete:was ext table ~vn:4 rid;
  let t = Option.get (Table.get table rid) in
  (* Under 3VNL the shift-forward restores the original delete exactly. *)
  check (Alcotest.option Alcotest.int) "slot1 restored to the vn-3 delete" (Some 3)
    (Schema_ext.tuple_vn ext ~slot:1 t);
  check Alcotest.string "op delete" "delete"
    (Vnl_core.Op.to_string (Schema_ext.operation ext ~slot:1 t));
  (* Session 2 (within the 3VNL window) still reads the pre-delete 100. *)
  (match Reader.extract ext ~session_vn:2 t with
  | Some b ->
    Alcotest.(check bool) "pre-delete value intact" true
      (Value.equal (Tuple.get b 4) (Value.Int 100))
  | None -> Alcotest.fail "session 2 should see the pre-delete value");
  Alcotest.(check bool) "session 3 ignores" true (Reader.extract ext ~session_vn:3 t = None)

(* ---------- nVNL: Figure 7 / Example 5.1 ---------- *)

let build_figure7 () =
  let db = Database.create () in
  let ext = Schema_ext.extend ~n:4 Fixtures.daily_sales in
  let table = Database.create_table db "DailySales" (Schema_ext.extended ext) in
  let rid = Maintenance.apply_insert ext table ~vn:3 (sj_row 10000) in
  Maintenance.apply_update ext table ~vn:5 rid [ (4, Value.Int 10200) ];
  Maintenance.apply_delete ext table ~vn:6 rid;
  (ext, table, rid)

let test_figure7_layout () =
  let ext, table, rid = build_figure7 () in
  match Table.get table rid with
  | None -> Alcotest.fail "tuple missing"
  | Some t ->
    let slot_vn s = Schema_ext.tuple_vn ext ~slot:s t in
    let slot_op s = Op.to_string (Schema_ext.operation ext ~slot:s t) in
    let pre s = Tuple.get t (Schema_ext.pre_index ext ~slot:s 4) in
    check (Alcotest.option Alcotest.int) "tupleVN1" (Some 6) (slot_vn 1);
    check Alcotest.string "operation1" "delete" (slot_op 1);
    Alcotest.(check bool) "pre1 = 10,200" true (Value.equal (pre 1) (Value.Int 10200));
    check (Alcotest.option Alcotest.int) "tupleVN2" (Some 5) (slot_vn 2);
    check Alcotest.string "operation2" "update" (slot_op 2);
    Alcotest.(check bool) "pre2 = 10,000" true (Value.equal (pre 2) (Value.Int 10000));
    check (Alcotest.option Alcotest.int) "tupleVN3" (Some 3) (slot_vn 3);
    check Alcotest.string "operation3" "insert" (slot_op 3);
    Alcotest.(check bool) "pre3 = null" true (Value.is_null (pre 3));
    Alcotest.(check bool) "current = 10,200" true
      (Value.equal (Tuple.get t (Schema_ext.base_index ext 4)) (Value.Int 10200))

let test_example_5_1_visibility () =
  let ext, table, rid = build_figure7 () in
  let view s =
    match Table.get table rid with
    | None -> Alcotest.fail "tuple missing"
    | Some t -> Reader.extract ext ~session_vn:s t
  in
  let sales = function
    | Some t -> Some (Tuple.get t 4)
    | None -> None
  in
  (* sessionVN >= 6: tuple ignored (deleted). *)
  Alcotest.(check bool) "s=6 ignored" true (view 6 = None);
  Alcotest.(check bool) "s=7 ignored" true (view 7 = None);
  (* sessionVN = 5: pre-update of the delete = 10,200. *)
  Alcotest.(check bool) "s=5 sees 10,200" true
    (sales (view 5) = Some (Value.Int 10200));
  (* sessionVN in {3,4}: 10,000. *)
  Alcotest.(check bool) "s=4 sees 10,000" true (sales (view 4) = Some (Value.Int 10000));
  Alcotest.(check bool) "s=3 sees 10,000" true (sales (view 3) = Some (Value.Int 10000));
  (* sessionVN = 2: pre of the insert -> ignore. *)
  Alcotest.(check bool) "s=2 ignored" true (view 2 = None);
  (* sessionVN < 2: expired. *)
  Alcotest.(check bool) "s=1 expired" true
    (try ignore (view 1); false with Reader.Session_expired _ -> true)

(* ---------- Expiry formula (§5) ---------- *)

let test_expiry_formula () =
  check Alcotest.int "2VNL bound = gap" 60 (Expiry.never_expire_bound ~n:2 ~gap:60 ~txn_len:1380);
  (* §5: 3VNL guarantees sessions up to 2i + m never expire. *)
  check Alcotest.int "3VNL = 2i + m"
    ((2 * 60) + 1380)
    (Expiry.never_expire_bound ~n:3 ~gap:60 ~txn_len:1380);
  check Alcotest.int "general formula" (((4 - 1) * (60 + 1380)) - 1380)
    (Expiry.never_expire_bound ~n:4 ~gap:60 ~txn_len:1380)

let test_versions_needed () =
  check Alcotest.int "session fits 2VNL" 2 (Expiry.versions_needed ~session_len:50 ~gap:60 ~txn_len:1380);
  check Alcotest.int "longer session needs 3" 3
    (Expiry.versions_needed ~session_len:100 ~gap:60 ~txn_len:1380);
  Alcotest.(check bool) "monotone in session length" true
    (Expiry.versions_needed ~session_len:10_000 ~gap:60 ~txn_len:1380
    >= Expiry.versions_needed ~session_len:100 ~gap:60 ~txn_len:1380)

let test_versions_needed_degenerate () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  (* gap = 0 and txn_len = 0 leave every bound at 0: no n can cover a
     positive session, and the old implementation looped or returned a
     bogus n instead of saying so. *)
  Alcotest.(check bool) "unsatisfiable rejected" true
    (raises (fun () -> Expiry.versions_needed ~session_len:10 ~gap:0 ~txn_len:0));
  (* ...but a zero-length session is covered by the minimum n. *)
  check Alcotest.int "zero session fine" 2
    (Expiry.versions_needed ~session_len:0 ~gap:0 ~txn_len:0);
  List.iter
    (fun f -> Alcotest.(check bool) "negative duration rejected" true (raises f))
    [
      (fun () -> Expiry.versions_needed ~session_len:(-1) ~gap:60 ~txn_len:10);
      (fun () -> Expiry.versions_needed ~session_len:10 ~gap:(-60) ~txn_len:10);
      (fun () -> Expiry.versions_needed ~session_len:10 ~gap:60 ~txn_len:(-10));
      (fun () -> Expiry.never_expire_bound ~n:2 ~gap:(-1) ~txn_len:0);
      (fun () -> Expiry.never_expire_bound ~n:1 ~gap:60 ~txn_len:10);
    ]

(* Property: the closed form returns exactly the smallest n >= 2 whose
   never_expire_bound covers the session. *)
let qcheck_versions_needed_minimal =
  let open QCheck in
  let gen = Gen.(triple (0 -- 5000) (0 -- 2000) (0 -- 2000)) in
  Test.make ~name:"versions_needed is the minimal covering n" ~count:500
    (make gen ~print:Print.(triple int int int))
    (fun (session_len, gap, txn_len) ->
      QCheck.assume (not (gap = 0 && txn_len = 0 && session_len > 0));
      let n = Expiry.versions_needed ~session_len ~gap ~txn_len in
      n >= 2
      && Expiry.never_expire_bound ~n ~gap ~txn_len >= session_len
      && (n = 2 || Expiry.never_expire_bound ~n:(n - 1) ~gap ~txn_len < session_len))

let suite =
  [
    Alcotest.test_case "op net effects (same txn)" `Quick test_op_combine_same_txn;
    Alcotest.test_case "op impossible cells" `Quick test_op_impossible_cells;
    Alcotest.test_case "op older-txn legal moves" `Quick test_op_older_txn_allowed;
    Alcotest.test_case "op value roundtrip" `Quick test_op_value_roundtrip;
    Alcotest.test_case "Figure 3 widths (42 -> 51 bytes)" `Quick test_extend_figure3_widths;
    Alcotest.test_case "Figure 3 attribute order" `Quick test_extend_names_2vnl;
    Alcotest.test_case "key preserved by extension" `Quick test_extend_key_preserved;
    Alcotest.test_case "4VNL layout" `Quick test_extend_n4_layout;
    Alcotest.test_case "reserved names rejected" `Quick test_extend_rejects_reserved;
    Alcotest.test_case "n=1 rejected" `Quick test_extend_rejects_n1;
    Alcotest.test_case "pre_index of non-updatable rejected" `Quick
      test_pre_index_non_updatable_rejected;
    Alcotest.test_case "version state lifecycle" `Quick test_version_state_lifecycle;
    Alcotest.test_case "single maintenance writer" `Quick test_version_state_single_writer;
    Alcotest.test_case "version state abort" `Quick test_version_state_abort;
    Alcotest.test_case "Version relation queryable" `Quick test_version_state_is_queryable;
    Alcotest.test_case "Example 3.2 (sessionVN=3 view)" `Quick test_example_3_2;
    Alcotest.test_case "session 4 sees current" `Quick test_reader_session4_sees_current;
    Alcotest.test_case "per-tuple expiry detection" `Quick test_reader_expiry_per_tuple;
    Alcotest.test_case "Table 1 conformance" `Quick test_reader_table1_cases;
    Alcotest.test_case "global expiry check (§4.1)" `Quick test_reader_global_expiry_check;
    Alcotest.test_case "Figure 5 -> Figure 6" `Quick test_figure6;
    Alcotest.test_case "Figure 5 physical op accounting" `Quick test_figure5_physical_ops;
    Alcotest.test_case "session 4 isolated from vn-5 txn" `Quick
      test_figure6_reader_session4_still_consistent;
    Alcotest.test_case "session 5 sees vn-5 state" `Quick
      test_figure6_reader_session5_sees_new_state;
    Alcotest.test_case "same-txn insert+update" `Quick test_same_txn_insert_then_update;
    Alcotest.test_case "same-txn insert+delete physical" `Quick
      test_same_txn_insert_then_delete_physical;
    Alcotest.test_case "same-txn update+delete" `Quick test_same_txn_update_then_delete;
    Alcotest.test_case "same-txn delete+insert = update" `Quick
      test_same_txn_delete_then_insert_is_update;
    Alcotest.test_case "insert over older delete (Table 2 row 1)" `Quick
      test_older_txn_insert_over_delete;
    Alcotest.test_case "ops on deleted tuple impossible" `Quick
      test_update_of_deleted_is_impossible;
    Alcotest.test_case "non-updatable assignment rejected" `Quick
      test_update_non_updatable_rejected;
    Alcotest.test_case "Table 4 row-2 correction (2VNL)" `Quick
      test_insert_over_delete_then_delete_2vnl;
    Alcotest.test_case "Table 4 row-2 correction (3VNL)" `Quick
      test_insert_over_delete_then_delete_nvnl;
    Alcotest.test_case "Figure 7 layout (4VNL)" `Quick test_figure7_layout;
    Alcotest.test_case "Example 5.1 visibility" `Quick test_example_5_1_visibility;
    Alcotest.test_case "expiry formula" `Quick test_expiry_formula;
    Alcotest.test_case "versions_needed tuning" `Quick test_versions_needed;
    Alcotest.test_case "versions_needed degenerate inputs" `Quick test_versions_needed_degenerate;
    QCheck_alcotest.to_alcotest qcheck_versions_needed_minimal;
  ]
