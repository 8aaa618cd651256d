(* Tests for secondary indexes, the access-path planner, and the §4.3
   story: indexes on group-by attributes keep working under the 2VNL
   rewrite, while predicates on updatable attributes (wrapped in CASE) fall
   back to scans. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Plan = Vnl_query.Plan
module Twovnl = Vnl_core.Twovnl
module Rewrite = Vnl_core.Rewrite
module Xorshift = Vnl_util.Xorshift

let check = Alcotest.check

let schema =
  Schema.make
    [
      Schema.attr ~key:true "id" Dtype.Int;
      Schema.attr "city" (Dtype.Str 16);
      Schema.attr ~updatable:true "v" Dtype.Int;
    ]

let mk id city v = Tuple.make schema [ Value.Int id; Value.Str city; Value.Int v ]

let cities = [| "sj"; "bk"; "nv"; "fr" |]

let loaded_table () =
  let db = Database.create () in
  let t = Database.create_table db "T" schema in
  let rng = Xorshift.create 7 in
  for id = 1 to 200 do
    ignore (Table.insert t (mk id cities.(Xorshift.int rng 4) (Xorshift.int rng 50)))
  done;
  (db, t)

let test_index_lookup_matches_scan () =
  let _db, t = loaded_table () in
  Table.create_index t ~name:"idx_city" [ "city" ];
  Array.iter
    (fun city ->
      let via_index = List.length (Table.index_lookup t ~name:"idx_city" [ Value.Str city ]) in
      let via_scan = ref 0 in
      Table.scan t (fun _ tuple ->
          if Value.equal (Tuple.get tuple 1) (Value.Str city) then incr via_scan);
      check Alcotest.int city !via_scan via_index)
    cities

let test_index_maintained_on_update_delete () =
  let _db, t = loaded_table () in
  Table.create_index t ~name:"idx_city" [ "city" ];
  let sj_before = List.length (Table.index_lookup t ~name:"idx_city" [ Value.Str "sj" ]) in
  (* Move one sj row to bk. *)
  (match Table.find_by_key t [ Value.Int 1 ] with
  | Some (rid, tuple) when Value.equal (Tuple.get tuple 1) (Value.Str "sj") ->
    Table.update_in_place t rid (Tuple.set tuple 1 (Value.Str "bk"));
    check Alcotest.int "one fewer sj" (sj_before - 1)
      (List.length (Table.index_lookup t ~name:"idx_city" [ Value.Str "sj" ]))
  | Some (rid, tuple) ->
    (* id 1 was not sj; delete it instead and check its city's postings. *)
    let city = Tuple.get tuple 1 in
    let before = List.length (Table.index_lookup t ~name:"idx_city" [ city ]) in
    Table.delete t rid;
    check Alcotest.int "posting removed" (before - 1)
      (List.length (Table.index_lookup t ~name:"idx_city" [ city ]))
  | None -> Alcotest.fail "id 1 missing")

let test_index_created_after_load () =
  let _db, t = loaded_table () in
  (* Index built over existing rows must be complete. *)
  Table.create_index t ~name:"idx_v" [ "v" ];
  let total =
    List.fold_left
      (fun acc v -> acc + List.length (Table.index_lookup t ~name:"idx_v" [ Value.Int v ]))
      0
      (List.init 50 (fun v -> v))
  in
  check Alcotest.int "all rows indexed" 200 total

let test_index_errors () =
  let _db, t = loaded_table () in
  Table.create_index t ~name:"i" [ "city" ];
  let expect_invalid f =
    Alcotest.(check bool) "raises" true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  expect_invalid (fun () -> Table.create_index t ~name:"i" [ "city" ]);
  expect_invalid (fun () -> Table.create_index t ~name:"j" [ "nope" ]);
  expect_invalid (fun () -> Table.create_index t ~name:"k" []);
  Alcotest.(check bool) "unknown index lookup" true
    (try ignore (Table.index_lookup t ~name:"zzz" [ Value.Str "sj" ]); false
     with Not_found -> true)

let test_planner_chooses_paths () =
  let db, t = loaded_table () in
  Table.create_index t ~name:"idx_city" [ "city" ];
  let explain sql = Plan.explain (Plan.prepare db (Vnl_sql.Parser.parse_select sql)) in
  check Alcotest.string "unique probe" "T: unique-key probe"
    (explain "SELECT v FROM T WHERE id = 5");
  check Alcotest.string "index scan" "T: index scan via idx_city"
    (explain "SELECT v FROM T WHERE city = 'sj'");
  check Alcotest.string "full scan" "T: full scan" (explain "SELECT v FROM T WHERE v > 3");
  check Alcotest.string "index with extra residual" "T: index scan via idx_city"
    (explain "SELECT v FROM T WHERE city = 'sj' AND v > 3");
  (* Disjunction disables the conjunct analysis. *)
  check Alcotest.string "or disables" "T: full scan"
    (explain "SELECT v FROM T WHERE city = 'sj' OR v > 3")

let test_planner_results_equal_scan () =
  let db, t = loaded_table () in
  let before = Fixtures.sql db "SELECT id FROM T WHERE city = 'sj' ORDER BY id" in
  Table.create_index t ~name:"idx_city" [ "city" ];
  let after = Fixtures.sql db "SELECT id FROM T WHERE city = 'sj' ORDER BY id" in
  Alcotest.(check bool) "same result" true (Plan.result_equal before after)

let test_planner_param_probe () =
  let db, t = loaded_table () in
  Table.create_index t ~name:"idx_city" [ "city" ];
  let r =
    Fixtures.sql db
      ~params:[ ("c", Value.Str "sj") ]
      "SELECT COUNT(*) FROM T WHERE city = :c"
  in
  let via_scan = ref 0 in
  Table.scan t (fun _ tuple ->
      if Value.equal (Tuple.get tuple 1) (Value.Str "sj") then incr via_scan);
  match r.Plan.rows with
  | [ [ Value.Int n ] ] -> check Alcotest.int "param-bound index probe" !via_scan n
  | _ -> Alcotest.fail "shape"

(* §4.3: the rewritten reader query still uses a group-by index; a predicate
   on an updatable attribute becomes CASE and cannot. *)
let test_rewrite_preserves_index_use () =
  let db = Database.create () in
  let wh = Twovnl.init db in
  let handle = Twovnl.register_table wh ~name:"DailySales" Fixtures.daily_sales in
  Twovnl.load_initial wh "DailySales"
    [ Fixtures.base_row "San Jose" "CA" "golf equip" 10 14 96 10000;
      Fixtures.base_row "Berkeley" "CA" "racquetball" 10 14 96 12000 ];
  Table.create_index (Twovnl.table handle) ~name:"idx_city" [ "city" ];
  let rewritten sql =
    Rewrite.reader_select ~lookup:(Twovnl.lookup wh) (Vnl_sql.Parser.parse_select sql)
  in
  let explain sql = Plan.explain (Plan.prepare db (rewritten sql)) in
  check Alcotest.string "group-by attribute predicate keeps the index"
    "DailySales: index scan via idx_city"
    (explain "SELECT SUM(total_sales) FROM DailySales WHERE city = 'San Jose'");
  check Alcotest.string "updatable-attribute predicate cannot (CASE)"
    "DailySales: full scan"
    (explain "SELECT city FROM DailySales WHERE total_sales = 10000");
  (* And the indexed rewritten query returns the right answer. *)
  let s = Twovnl.Session.begin_ wh in
  let r =
    Twovnl.Session.query wh s "SELECT SUM(total_sales) FROM DailySales WHERE city = 'San Jose'"
  in
  match r.Plan.rows with
  | [ [ Value.Int 10000 ] ] -> ()
  | _ -> Alcotest.fail "wrong answer through index"

let qcheck_index_agrees_with_scan =
  QCheck.Test.make ~name:"index lookups = scan filter (random data)" ~count:60
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Xorshift.create seed in
      let db = Database.create () in
      let t = Database.create_table db "T" schema in
      Table.create_index t ~name:"ix" [ "v" ];
      let live = ref [] in
      let ok = ref true in
      for id = 1 to 120 do
        let v = Xorshift.int rng 8 in
        let rid = Table.insert t (mk id cities.(Xorshift.int rng 4) v) in
        live := (rid, id) :: !live;
        (* Randomly update or delete earlier rows. *)
        if Xorshift.chance rng 0.2 && !live <> [] then begin
          let rid, _ = Xorshift.pick_list rng !live in
          match Table.get t rid with
          | Some tuple ->
            if Xorshift.bool rng then
              Table.update_in_place t rid (Tuple.set tuple 2 (Value.Int (Xorshift.int rng 8)))
            else begin
              Table.delete t rid;
              live := List.filter (fun (r, _) -> not (Vnl_storage.Heap_file.rid_equal r rid)) !live
            end
          | None -> ()
        end
      done;
      for v = 0 to 7 do
        let via_index = List.length (Table.index_lookup t ~name:"ix" [ Value.Int v ]) in
        let via_scan = ref 0 in
        Table.scan t (fun _ tuple ->
            if Value.equal (Tuple.get tuple 2) (Value.Int v) then incr via_scan);
        if via_index <> !via_scan then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "index lookup = scan" `Quick test_index_lookup_matches_scan;
    Alcotest.test_case "index maintained on update/delete" `Quick
      test_index_maintained_on_update_delete;
    Alcotest.test_case "index built after load" `Quick test_index_created_after_load;
    Alcotest.test_case "index error cases" `Quick test_index_errors;
    Alcotest.test_case "planner access paths" `Quick test_planner_chooses_paths;
    Alcotest.test_case "planner preserves results" `Quick test_planner_results_equal_scan;
    Alcotest.test_case "parameter-bound probe" `Quick test_planner_param_probe;
    Alcotest.test_case "rewrite keeps group-by index (§4.3)" `Quick
      test_rewrite_preserves_index_use;
    QCheck_alcotest.to_alcotest qcheck_index_agrees_with_scan;
  ]
