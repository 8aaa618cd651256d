(* Tests for persistence (catalog save/reopen) and §7-style no-log crash
   recovery: a crash mid-maintenance is repaired from the tuples' own
   pre-update versions, no log consulted. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Catalog = Vnl_query.Catalog
module Executor = Vnl_query.Executor
module Twovnl = Vnl_core.Twovnl
module Xorshift = Vnl_util.Xorshift

let check = Alcotest.check

let test_catalog_roundtrip () =
  let entries =
    [
      {
        Catalog.table = "DailySales";
        schema = Fixtures.daily_sales;
        pages = [ 3; 7; 12 ];
        secondary = [ ("idx_city", [ "city"; "date" ]) ];
      };
      {
        Catalog.table = "Tiny";
        schema = Schema.make [ Schema.attr "a" Dtype.Int ];
        pages = [];
        secondary = [];
      };
    ]
  in
  let parsed = Catalog.parse (Catalog.serialize entries) in
  check Alcotest.int "two entries" 2 (List.length parsed);
  let e = List.hd parsed in
  check Alcotest.string "name" "DailySales" e.Catalog.table;
  Alcotest.(check bool) "schema equal" true (Schema.equal Fixtures.daily_sales e.Catalog.schema);
  check (Alcotest.list Alcotest.int) "pages" [ 3; 7; 12 ] e.Catalog.pages;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
    "secondary"
    [ ("idx_city", [ "city"; "date" ]) ]
    e.Catalog.secondary

let test_catalog_rejects_garbage () =
  List.iter
    (fun text ->
      Alcotest.(check bool) "raises" true
        (try ignore (Catalog.parse text); false with Catalog.Corrupt _ -> true))
    [ ""; "nonsense"; "vnl-catalog 1\nattr a|int|--\n"; "vnl-catalog 1\ntable t\nattr broken\nend" ]

(* Names the line-oriented catalog format cannot round-trip must be
   rejected when they enter the system, not discovered as a corrupt
   catalog at the next reopen. *)
let bad_names = [ ""; "a|b"; "a b"; "a\nb"; "a\tb"; "caf\xc3\xa9" ]

let tricky_good_names = [ "T-1.x_2"; "a'b"; "#tmp"; "UPPER_lower.0"; "!"; "~" ]

let entry_with ?(table = "T") ?(attr = "a") ?(index = None) () =
  let schema =
    Schema.make [ Schema.attr ~key:true attr Dtype.Int; Schema.attr "v" Dtype.Int ]
  in
  {
    Catalog.table;
    schema;
    pages = [ 1 ];
    secondary = (match index with None -> [] | Some (n, cols) -> [ (n, cols) ]);
  }

let test_catalog_rejects_bad_names () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "table %S rejected at serialize" name)
        true
        (raises (fun () -> ignore (Catalog.serialize [ entry_with ~table:name () ])));
      Alcotest.(check bool)
        (Printf.sprintf "attribute %S rejected at serialize" name)
        true
        (raises (fun () -> ignore (Catalog.serialize [ entry_with ~attr:name () ])));
      Alcotest.(check bool)
        (Printf.sprintf "index %S rejected at serialize" name)
        true
        (raises (fun () ->
             ignore (Catalog.serialize [ entry_with ~index:(Some (name, [ "a" ])) () ])));
      (* And the same names never get in through the front door. *)
      let db = Database.create () in
      Alcotest.(check bool)
        (Printf.sprintf "create_table %S rejected" name)
        true
        (raises (fun () ->
             ignore
               (Database.create_table db name
                  (Schema.make [ Schema.attr ~key:true "a" Dtype.Int ]))));
      let t =
        Database.create_table db "T" (Schema.make [ Schema.attr ~key:true "a" Dtype.Int ])
      in
      Alcotest.(check bool)
        (Printf.sprintf "create_index %S rejected" name)
        true
        (raises (fun () -> Table.create_index t ~name [ "a" ])))
    bad_names

let test_catalog_tricky_names_roundtrip () =
  List.iter
    (fun name ->
      let entry = entry_with ~table:name ~index:(Some (name ^ "_idx", [ "a" ])) () in
      match Catalog.parse (Catalog.serialize [ entry ]) with
      | [ e ] ->
        check Alcotest.string "table name survives" name e.Catalog.table;
        check
          (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
          "index survives"
          [ (name ^ "_idx", [ "a" ]) ]
          e.Catalog.secondary
      | _ -> Alcotest.failf "entry %S did not round-trip" name)
    tricky_good_names

let populated_db () =
  let db = Database.create () in
  let t = Database.create_table db "T" Fixtures.daily_sales in
  Table.create_index t ~name:"idx_city" [ "city" ];
  List.iter
    (fun r -> ignore (Table.insert t r))
    [
      Fixtures.base_row "San Jose" "CA" "golf equip" 10 14 96 10000;
      Fixtures.base_row "Berkeley" "CA" "racquetball" 10 14 96 12000;
      Fixtures.base_row "Novato" "CA" "rollerblades" 10 13 96 8000;
    ];
  db

let contents db name =
  List.sort Tuple.compare (List.map snd (Table.to_list (Database.table_exn db name)))

let test_save_reopen_roundtrip () =
  let db = populated_db () in
  let before = contents db "T" in
  Database.save db;
  let db2 = Database.reopen (Database.disk db) in
  Alcotest.(check bool) "tuples identical" true
    (List.equal Tuple.equal before (contents db2 "T"));
  (* Unique key and secondary index were rebuilt. *)
  let t2 = Database.table_exn db2 "T" in
  Alcotest.(check bool) "key probe works" true
    (Table.find_by_key t2
       [ Value.Str "Berkeley"; Value.Str "CA"; Value.Str "racquetball"; Value.date_of_mdy 10 14 96 ]
    <> None);
  check Alcotest.int "secondary index rebuilt" 1
    (List.length (Table.index_lookup t2 ~name:"idx_city" [ Value.Str "Berkeley" ]));
  (* And the reopened database is fully usable. *)
  let r = Fixtures.sql db2 "SELECT COUNT(*) FROM T" in
  match r.Executor.rows with
  | [ [ Value.Int 3 ] ] -> ()
  | _ -> Alcotest.fail "count after reopen"

let test_save_is_idempotent () =
  let db = populated_db () in
  Database.save db;
  Database.save db;
  let db2 = Database.reopen (Database.disk db) in
  check Alcotest.int "three tuples" 3 (Table.tuple_count (Database.table_exn db2 "T"))

let test_reopen_uninitialized_rejected () =
  let disk = Vnl_storage.Disk.create () in
  ignore (Vnl_storage.Disk.alloc disk);
  Alcotest.(check bool) "raises" true
    (try ignore (Database.reopen disk); false with Catalog.Corrupt _ -> true)

(* ---------- crash recovery of the 2VNL warehouse ---------- *)

let warehouse_rows =
  [
    Fixtures.base_row "San Jose" "CA" "golf equip" 10 14 96 10000;
    Fixtures.base_row "San Jose" "CA" "golf equip" 10 15 96 1500;
    Fixtures.base_row "Berkeley" "CA" "racquetball" 10 14 96 12000;
    Fixtures.base_row "Novato" "CA" "rollerblades" 10 13 96 8000;
  ]

let visible wh =
  let s = Twovnl.Session.begin_ wh in
  let rows = Twovnl.Session.read_table wh s "DailySales" in
  Twovnl.Session.end_ wh s;
  List.sort Tuple.compare rows

let test_crash_recovery_mid_maintenance () =
  let db = Database.create () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:"DailySales" Fixtures.daily_sales);
  Twovnl.load_initial wh "DailySales" warehouse_rows;
  (* One committed maintenance transaction... *)
  let m1 = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m1 "UPDATE DailySales SET total_sales = total_sales + 5 WHERE city = 'Novato'");
  Twovnl.Txn.commit m1;
  let committed = visible wh in
  (* ...then a second transaction crashes mid-flight: mutations applied,
     Version relation still says active, and the dirty pages happen to be
     flushed (worst case). *)
  let m2 = Twovnl.Txn.begin_ wh in
  ignore (Twovnl.Txn.sql m2 "UPDATE DailySales SET total_sales = 0 WHERE city = 'San Jose'");
  ignore (Twovnl.Txn.sql m2 "DELETE FROM DailySales WHERE city = 'Berkeley'");
  ignore
    (Twovnl.Txn.sql m2
       "INSERT INTO DailySales VALUES ('Fresno', 'CA', 'tennis', DATE '10/16/96', 1)");
  Database.save db;
  (* Restart: reopen from disk, re-attach, recover. *)
  let db2 = Database.reopen (Database.disk db) in
  let wh2 = Twovnl.attach db2 in
  let _h = Twovnl.attach_table wh2 ~name:"DailySales" Fixtures.daily_sales in
  Alcotest.(check bool) "flag survived the crash" true
    (Vnl_core.Version_state.maintenance_active (Twovnl.version_state wh2));
  let reverted = Twovnl.recover wh2 in
  Alcotest.(check bool) "something reverted" true (reverted >= 4);
  Alcotest.(check bool) "flag cleared" false
    (Vnl_core.Version_state.maintenance_active (Twovnl.version_state wh2));
  check Alcotest.int "currentVN preserved" 2 (Twovnl.current_vn wh2);
  (* The recovered state equals the last committed state. *)
  check Fixtures.base_testable "state = last commit" committed (visible wh2);
  (* And the warehouse is operational: a new transaction can run. *)
  let m3 = Twovnl.Txn.begin_ wh2 in
  ignore (Twovnl.Txn.sql m3 "DELETE FROM DailySales WHERE city = 'Novato'");
  Twovnl.Txn.commit m3;
  check Alcotest.int "life goes on" 3 (List.length (visible wh2))

let test_recover_noop_when_clean () =
  let db = Database.create () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:"DailySales" Fixtures.daily_sales);
  Twovnl.load_initial wh "DailySales" warehouse_rows;
  Database.save db;
  let db2 = Database.reopen (Database.disk db) in
  let wh2 = Twovnl.attach db2 in
  let _h = Twovnl.attach_table wh2 ~name:"DailySales" Fixtures.daily_sales in
  check Alcotest.int "nothing to revert" 0 (Twovnl.recover wh2);
  check Alcotest.int "all rows there" 4 (List.length (visible wh2))

let test_attach_table_schema_mismatch () =
  let db = Database.create () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:"DailySales" Fixtures.daily_sales);
  Database.save db;
  let db2 = Database.reopen (Database.disk db) in
  let wh2 = Twovnl.attach db2 in
  Alcotest.(check bool) "n mismatch rejected" true
    (try ignore (Twovnl.attach_table wh2 ~n:3 ~name:"DailySales" Fixtures.daily_sales); false
     with Invalid_argument _ -> true)

(* Property: random warehouse histories survive save/reopen/recover with
   views intact. *)
let qcheck_crash_recovery =
  QCheck.Test.make ~name:"crash recovery preserves committed views" ~count:25
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Xorshift.create seed in
      let db = Database.create () in
      let wh = Twovnl.init db in
      ignore (Twovnl.register_table wh ~name:"DailySales" Fixtures.daily_sales);
      Twovnl.load_initial wh "DailySales" warehouse_rows;
      (* A few committed transactions. *)
      for _ = 1 to 1 + Xorshift.int rng 3 do
        let m = Twovnl.Txn.begin_ wh in
        ignore
          (Twovnl.Txn.sql m
             (Printf.sprintf
                "UPDATE DailySales SET total_sales = total_sales + %d WHERE state = 'CA'"
                (Xorshift.int rng 100)));
        Twovnl.Txn.commit m
      done;
      let committed = visible wh in
      (* Maybe an in-flight transaction at crash time. *)
      let dirty = Xorshift.bool rng in
      if dirty then begin
        let m = Twovnl.Txn.begin_ wh in
        ignore
          (Twovnl.Txn.sql m "UPDATE DailySales SET total_sales = 1 WHERE city = 'San Jose'");
        if Xorshift.bool rng then
          ignore (Twovnl.Txn.sql m "DELETE FROM DailySales WHERE city = 'Novato'")
      end;
      Database.save db;
      let db2 = Database.reopen (Database.disk db) in
      let wh2 = Twovnl.attach db2 in
      let _h = Twovnl.attach_table wh2 ~name:"DailySales" Fixtures.daily_sales in
      ignore (Twovnl.recover wh2);
      List.equal Tuple.equal committed (visible wh2))

let suite =
  [
    Alcotest.test_case "catalog roundtrip" `Quick test_catalog_roundtrip;
    Alcotest.test_case "catalog rejects garbage" `Quick test_catalog_rejects_garbage;
    Alcotest.test_case "catalog rejects bad names" `Quick test_catalog_rejects_bad_names;
    Alcotest.test_case "catalog tricky names roundtrip" `Quick test_catalog_tricky_names_roundtrip;
    Alcotest.test_case "save/reopen roundtrip" `Quick test_save_reopen_roundtrip;
    Alcotest.test_case "save idempotent" `Quick test_save_is_idempotent;
    Alcotest.test_case "reopen uninitialized rejected" `Quick test_reopen_uninitialized_rejected;
    Alcotest.test_case "crash recovery mid-maintenance (§7)" `Quick
      test_crash_recovery_mid_maintenance;
    Alcotest.test_case "recover no-op when clean" `Quick test_recover_noop_when_clean;
    Alcotest.test_case "attach_table schema mismatch" `Quick test_attach_table_schema_mismatch;
    QCheck_alcotest.to_alcotest qcheck_crash_recovery;
  ]
