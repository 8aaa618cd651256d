(* Tests for the query engine: tables, evaluation, SELECT execution, DML. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Executor = Vnl_query.Executor
module Dml = Vnl_query.Dml
module Eval = Vnl_query.Eval
module Parser = Vnl_sql.Parser

let check = Alcotest.check

let daily_sales_schema =
  Schema.make
    [
      Schema.attr ~key:true "city" (Dtype.Str 20);
      Schema.attr ~key:true "state" (Dtype.Str 2);
      Schema.attr ~key:true "product_line" (Dtype.Str 12);
      Schema.attr ~key:true "date" Dtype.Date;
      Schema.attr ~updatable:true "total_sales" Dtype.Int;
    ]

let fresh_db () =
  let db = Database.create () in
  let t = Database.create_table db "DailySales" daily_sales_schema in
  let row city state pl m d y sales =
    Tuple.make daily_sales_schema
      [ Value.Str city; Value.Str state; Value.Str pl; Value.date_of_mdy m d y; Value.Int sales ]
  in
  List.iter
    (fun r -> ignore (Table.insert t r))
    [
      row "San Jose" "CA" "golf equip" 10 14 96 10000;
      row "San Jose" "CA" "golf equip" 10 15 96 1500;
      row "Berkeley" "CA" "racquetball" 10 14 96 12000;
      row "Novato" "CA" "rollerblades" 10 13 96 8000;
    ];
  db

let int_rows result =
  List.map
    (fun row -> List.map (fun v -> match v with Value.Int n -> n | _ -> min_int) row)
    result.Executor.rows

let test_table_unique_violation () =
  let db = fresh_db () in
  let t = Database.table_exn db "DailySales" in
  let dup =
    Tuple.make daily_sales_schema
      [
        Value.Str "San Jose"; Value.Str "CA"; Value.Str "golf equip";
        Value.date_of_mdy 10 14 96; Value.Int 1;
      ]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Table.insert t dup);
       false
     with Table.Unique_violation _ -> true)

let test_table_find_by_key () =
  let db = fresh_db () in
  let t = Database.table_exn db "DailySales" in
  let key =
    [ Value.Str "Berkeley"; Value.Str "CA"; Value.Str "racquetball"; Value.date_of_mdy 10 14 96 ]
  in
  match Table.find_by_key t key with
  | Some (_, tuple) ->
    check Alcotest.string "sales" "12,000"
      (Value.to_string (Tuple.get_by_name daily_sales_schema tuple "total_sales"))
  | None -> Alcotest.fail "key probe failed"

let test_table_update_in_place_reindexes () =
  let db = fresh_db () in
  let t = Database.table_exn db "DailySales" in
  let key =
    [ Value.Str "Novato"; Value.Str "CA"; Value.Str "rollerblades"; Value.date_of_mdy 10 13 96 ]
  in
  match Table.find_by_key t key with
  | None -> Alcotest.fail "probe"
  | Some (rid, tuple) ->
    Table.update_in_place t rid (Tuple.set tuple 4 (Value.Int 9999));
    (match Table.find_by_key t key with
    | Some (_, updated) ->
      check Alcotest.string "updated" "9,999" (Value.to_string (Tuple.get updated 4))
    | None -> Alcotest.fail "lost after update")

let test_table_delete_removes_from_index () =
  let db = fresh_db () in
  let t = Database.table_exn db "DailySales" in
  let key =
    [ Value.Str "Novato"; Value.Str "CA"; Value.Str "rollerblades"; Value.date_of_mdy 10 13 96 ]
  in
  (match Table.find_by_key t key with
  | Some (rid, _) -> Table.delete t rid
  | None -> Alcotest.fail "probe");
  Alcotest.(check bool) "gone" true (Table.find_by_key t key = None);
  check Alcotest.int "count" 3 (Table.tuple_count t)

let test_db_duplicate_table () =
  let db = fresh_db () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Database.create_table db "DailySales" daily_sales_schema);
       false
     with Invalid_argument _ -> true)

let test_select_star () =
  let db = fresh_db () in
  let r = Fixtures.sql db "SELECT * FROM DailySales" in
  check Alcotest.int "rows" 4 (List.length r.Executor.rows);
  check Alcotest.int "columns" 5 (List.length r.Executor.columns)

let test_select_where () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db "SELECT total_sales FROM DailySales WHERE city = 'San Jose'"
  in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "values" [ [ 10000 ]; [ 1500 ] ] (int_rows r)

(* Example 2.1's first analyst query. *)
let test_select_group_by_paper () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db
      "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state \
       ORDER BY city"
  in
  let rendered =
    List.map (fun row -> List.map Value.to_string row) r.Executor.rows
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "totals"
    [
      [ "Berkeley"; "CA"; "12,000" ];
      [ "Novato"; "CA"; "8,000" ];
      [ "San Jose"; "CA"; "11,500" ];
    ]
    rendered

(* Example 2.1's drill-down query. *)
let test_select_drill_down_paper () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db
      "SELECT product_line, SUM(total_sales) FROM DailySales \
       WHERE city = 'San Jose' AND state = 'CA' GROUP BY product_line"
  in
  (match r.Executor.rows with
  | [ [ Value.Str "golf equip"; Value.Int 11500 ] ] -> ()
  | _ -> Alcotest.fail "drill-down mismatch");
  (* Consistency: drill-down must add up to the city total. *)
  let total =
    Fixtures.sql db
      "SELECT SUM(total_sales) FROM DailySales WHERE city = 'San Jose' AND state = 'CA'"
  in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "sum matches" [ [ 11500 ] ] (int_rows total)

let test_select_aggregates () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db
      "SELECT COUNT(*), MIN(total_sales), MAX(total_sales), AVG(total_sales) FROM DailySales"
  in
  match r.Executor.rows with
  | [ [ Value.Int 4; Value.Int 1500; Value.Int 12000; Value.Float avg ] ] ->
    check (Alcotest.float 1e-9) "avg" 7875.0 avg
  | _ -> Alcotest.fail "aggregate row shape"

let test_select_count_empty () =
  let db = fresh_db () in
  let r = Fixtures.sql db "SELECT COUNT(*) FROM DailySales WHERE city = 'Nowhere'" in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "zero" [ [ 0 ] ] (int_rows r)

let test_select_sum_empty_is_null () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db "SELECT SUM(total_sales) FROM DailySales WHERE city = 'Nowhere'"
  in
  match r.Executor.rows with
  | [ [ Value.Null ] ] -> ()
  | _ -> Alcotest.fail "SUM over empty should be NULL"

let test_select_having () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db
      "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city \
       HAVING SUM(total_sales) > 10000 ORDER BY city"
  in
  let cities = List.map (fun row -> Value.to_string (List.hd row)) r.Executor.rows in
  check (Alcotest.list Alcotest.string) "cities" [ "Berkeley"; "San Jose" ] cities

let test_select_order_desc () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db "SELECT total_sales FROM DailySales ORDER BY total_sales DESC"
  in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "descending"
    [ [ 12000 ]; [ 10000 ]; [ 8000 ]; [ 1500 ] ]
    (int_rows r)

let test_order_by_aggregate () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db
      "SELECT city FROM DailySales GROUP BY city ORDER BY SUM(total_sales) DESC"
  in
  let cities = List.map (fun row -> Value.to_string (List.hd row)) r.Executor.rows in
  check (Alcotest.list Alcotest.string) "by descending total"
    [ "Berkeley"; "San Jose"; "Novato" ] cities

let test_global_having () =
  let db = fresh_db () in
  let keeps = Fixtures.sql db "SELECT SUM(total_sales) FROM DailySales HAVING COUNT(*) > 2" in
  check Alcotest.int "kept" 1 (List.length keeps.Executor.rows);
  let drops =
    Fixtures.sql db "SELECT SUM(total_sales) FROM DailySales HAVING COUNT(*) > 99"
  in
  check Alcotest.int "dropped" 0 (List.length drops.Executor.rows)

let test_limit_offset () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db
      "SELECT total_sales FROM DailySales ORDER BY total_sales DESC LIMIT 2"
  in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "top 2" [ [ 12000 ]; [ 10000 ] ] (int_rows r);
  let r2 =
    Fixtures.sql db
      "SELECT total_sales FROM DailySales ORDER BY total_sales DESC LIMIT 2 OFFSET 2"
  in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "next 2" [ [ 8000 ]; [ 1500 ] ] (int_rows r2);
  let r3 = Fixtures.sql db "SELECT total_sales FROM DailySales LIMIT 0" in
  check Alcotest.int "limit 0" 0 (List.length r3.Executor.rows);
  let r4 =
    Fixtures.sql db "SELECT total_sales FROM DailySales LIMIT 99 OFFSET 3"
  in
  check Alcotest.int "offset past end" 1 (List.length r4.Executor.rows)

let test_select_distinct () =
  let db = fresh_db () in
  let r = Fixtures.sql db "SELECT DISTINCT state FROM DailySales" in
  check Alcotest.int "one state" 1 (List.length r.Executor.rows)

let test_select_params () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db
      ~params:[ ("min_sales", Value.Int 9000) ]
      "SELECT city FROM DailySales WHERE total_sales >= :min_sales ORDER BY city"
  in
  let cities = List.map (fun row -> Value.to_string (List.hd row)) r.Executor.rows in
  check (Alcotest.list Alcotest.string) "cities" [ "Berkeley"; "San Jose" ] cities

let test_select_unbound_param () =
  let db = fresh_db () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Fixtures.sql db "SELECT city FROM DailySales WHERE total_sales > :x");
       false
     with Eval.Eval_error _ -> true)

let test_select_unknown_table () =
  let db = fresh_db () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Fixtures.sql db "SELECT * FROM Nope");
       false
     with Executor.Query_error _ -> true)

let test_select_unknown_column () =
  let db = fresh_db () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Fixtures.sql db "SELECT nonsense FROM DailySales");
       false
     with Eval.Eval_error _ -> true)

let test_select_cross_product_join () =
  let db = fresh_db () in
  let regions =
    Schema.make [ Schema.attr ~key:true "state" (Dtype.Str 2); Schema.attr "region" (Dtype.Str 8) ]
  in
  let t = Database.create_table db "Regions" regions in
  ignore (Table.insert t (Tuple.make regions [ Value.Str "CA"; Value.Str "west" ]));
  let r =
    Fixtures.sql db
      "SELECT d.city, r.region FROM DailySales d, Regions r WHERE d.state = r.state"
  in
  check Alcotest.int "joined rows" 4 (List.length r.Executor.rows)

let test_select_ambiguous_column () =
  let db = fresh_db () in
  let regions =
    Schema.make [ Schema.attr ~key:true "state" (Dtype.Str 2); Schema.attr "region" (Dtype.Str 8) ]
  in
  let t = Database.create_table db "Regions" regions in
  ignore (Table.insert t (Tuple.make regions [ Value.Str "CA"; Value.Str "west" ]));
  Alcotest.(check bool) "raises" true
    (try
       ignore (Fixtures.sql db "SELECT state FROM DailySales, Regions");
       false
     with Eval.Eval_error _ -> true)

let test_case_expression_eval () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db
      "SELECT city, CASE WHEN total_sales >= 10000 THEN 'big' ELSE 'small' END AS size \
       FROM DailySales ORDER BY city"
  in
  let sizes = List.map (fun row -> Value.to_string (List.nth row 1)) r.Executor.rows in
  check (Alcotest.list Alcotest.string) "sizes" [ "big"; "small"; "big"; "small" ] sizes

let test_null_three_valued_logic () =
  let db = Database.create () in
  let s = Schema.make [ Schema.attr "a" Dtype.Int ] in
  let t = Database.create_table db "t" s in
  ignore (Table.insert t (Tuple.make s [ Value.Int 1 ]));
  ignore (Table.insert t (Tuple.make s [ Value.Null ]));
  (* NULL = NULL is unknown, so the row must not match. *)
  let r = Fixtures.sql db "SELECT a FROM t WHERE a = a" in
  check Alcotest.int "null row filtered" 1 (List.length r.Executor.rows);
  let r2 = Fixtures.sql db "SELECT a FROM t WHERE a IS NULL" in
  check Alcotest.int "is null matches" 1 (List.length r2.Executor.rows)

let test_in_between_like_eval () =
  let db = fresh_db () in
  let r =
    Fixtures.sql db
      "SELECT city FROM DailySales WHERE city IN ('Berkeley', 'Novato') ORDER BY city"
  in
  check Alcotest.int "IN matches" 2 (List.length r.Executor.rows);
  let r2 =
    Fixtures.sql db
      "SELECT city FROM DailySales WHERE total_sales BETWEEN 8000 AND 12000 ORDER BY city"
  in
  check Alcotest.int "BETWEEN matches" 3 (List.length r2.Executor.rows);
  let r3 = Fixtures.sql db "SELECT city FROM DailySales WHERE city LIKE 'San%'" in
  check Alcotest.int "LIKE prefix" 2 (List.length r3.Executor.rows);
  let r4 = Fixtures.sql db "SELECT city FROM DailySales WHERE city LIKE '%o%'" in
  check Alcotest.int "LIKE infix" 3 (List.length r4.Executor.rows);
  let r5 = Fixtures.sql db "SELECT city FROM DailySales WHERE city LIKE 'N_vato'" in
  check Alcotest.int "LIKE underscore" 1 (List.length r5.Executor.rows);
  let r6 =
    Fixtures.sql db "SELECT city FROM DailySales WHERE city NOT IN ('San Jose')"
  in
  check Alcotest.int "NOT IN" 2 (List.length r6.Executor.rows)

let test_in_null_semantics () =
  let db = Database.create () in
  let s = Schema.make [ Schema.attr "a" Dtype.Int ] in
  let t = Database.create_table db "t" s in
  ignore (Table.insert t (Tuple.make s [ Value.Int 1 ]));
  ignore (Table.insert t (Tuple.make s [ Value.Null ]));
  (* 1 IN (2, NULL) is unknown, not false; NULL IN (...) is unknown. *)
  let r = Fixtures.sql db "SELECT a FROM t WHERE a IN (2, NULL)" in
  check Alcotest.int "unknown filters out" 0 (List.length r.Executor.rows);
  let r2 = Fixtures.sql db "SELECT a FROM t WHERE NOT (a IN (2, NULL))" in
  check Alcotest.int "NOT unknown is still unknown" 0 (List.length r2.Executor.rows);
  let r3 = Fixtures.sql db "SELECT a FROM t WHERE a IN (1, NULL)" in
  check Alcotest.int "match wins over null" 1 (List.length r3.Executor.rows)

let test_dml_insert () =
  let db = fresh_db () in
  let out =
    Dml.execute_string db
      "INSERT INTO DailySales VALUES ('Fresno', 'CA', 'tennis', DATE '10/14/96', 500)"
  in
  check Alcotest.int "changed" 1 out.Dml.changed;
  check Alcotest.int "count" 5 (Table.tuple_count (Database.table_exn db "DailySales"))

let test_dml_insert_named_columns_null_fill () =
  let db = Database.create () in
  let s = Schema.make [ Schema.attr "a" Dtype.Int; Schema.attr "b" Dtype.Int ] in
  ignore (Database.create_table db "t" s);
  ignore (Dml.execute_string db "INSERT INTO t (b) VALUES (7)");
  let r = Fixtures.sql db "SELECT a, b FROM t" in
  match r.Executor.rows with
  | [ [ Value.Null; Value.Int 7 ] ] -> ()
  | _ -> Alcotest.fail "null fill"

(* Example 4.3's UPDATE statement shape. *)
let test_dml_update_paper () =
  let db = fresh_db () in
  let out =
    Dml.execute_string db
      "UPDATE DailySales SET total_sales = total_sales + 1000 \
       WHERE city = 'San Jose' AND date = DATE '10/14/96'"
  in
  check Alcotest.int "matched" 1 out.Dml.matched;
  let r =
    Fixtures.sql db
      "SELECT total_sales FROM DailySales WHERE city = 'San Jose' AND date = DATE '10/14/96'"
  in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "updated" [ [ 11000 ] ] (int_rows r)

let test_dml_update_sees_old_values () =
  let db = Database.create () in
  let s = Schema.make [ Schema.attr "a" Dtype.Int; Schema.attr "b" Dtype.Int ] in
  let t = Database.create_table db "t" s in
  ignore (Table.insert t (Tuple.make s [ Value.Int 1; Value.Int 2 ]));
  (* Swap via simultaneous assignment: both RHS see the old tuple. *)
  ignore (Dml.execute_string db "UPDATE t SET a = b, b = a");
  let r = Fixtures.sql db "SELECT a, b FROM t" in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "swapped" [ [ 2; 1 ] ] (int_rows r)

let test_dml_delete () =
  let db = fresh_db () in
  let out = Dml.execute_string db "DELETE FROM DailySales WHERE state = 'CA'" in
  check Alcotest.int "deleted all" 4 out.Dml.changed;
  check Alcotest.int "empty" 0 (Table.tuple_count (Database.table_exn db "DailySales"))

let test_dml_select_rids_cursor () =
  let db = fresh_db () in
  let where = Some (Parser.parse_expr "city = 'San Jose'") in
  let rids = Dml.select_rids db ~table:"DailySales" where in
  check Alcotest.int "two matches" 2 (List.length rids)

(* Property: SUM(x) equals the fold over a full scan, for random tables. *)
let qcheck_sum_matches_scan =
  let open QCheck in
  let module Tuple = Vnl_relation.Tuple in
  let gen = Gen.(list_size (0 -- 60) (int_range 0 10000)) in
  Test.make ~name:"SUM agrees with manual fold" ~count:100 (make gen) (fun values ->
      let db = Database.create () in
      let s = Schema.make [ Schema.attr ~key:true "id" Dtype.Int; Schema.attr "v" Dtype.Int ] in
      let t = Database.create_table db "t" s in
      List.iteri
        (fun i v -> ignore (Table.insert t (Tuple.make s [ Value.Int i; Value.Int v ])))
        values;
      let r = Fixtures.sql db "SELECT SUM(v) FROM t" in
      match (r.Executor.rows, values) with
      | [ [ Value.Null ] ], [] -> true
      | [ [ Value.Int total ] ], _ -> total = List.fold_left ( + ) 0 values
      | _ -> false)

let suite =
  [
    Alcotest.test_case "unique violation" `Quick test_table_unique_violation;
    Alcotest.test_case "find by key" `Quick test_table_find_by_key;
    Alcotest.test_case "update reindexes" `Quick test_table_update_in_place_reindexes;
    Alcotest.test_case "delete unindexes" `Quick test_table_delete_removes_from_index;
    Alcotest.test_case "duplicate table rejected" `Quick test_db_duplicate_table;
    Alcotest.test_case "select star" `Quick test_select_star;
    Alcotest.test_case "select where" `Quick test_select_where;
    Alcotest.test_case "paper query 1 (group by)" `Quick test_select_group_by_paper;
    Alcotest.test_case "paper query 2 (drill down)" `Quick test_select_drill_down_paper;
    Alcotest.test_case "aggregates" `Quick test_select_aggregates;
    Alcotest.test_case "count on empty" `Quick test_select_count_empty;
    Alcotest.test_case "sum on empty is null" `Quick test_select_sum_empty_is_null;
    Alcotest.test_case "having" `Quick test_select_having;
    Alcotest.test_case "order by desc" `Quick test_select_order_desc;
    Alcotest.test_case "order by aggregate" `Quick test_order_by_aggregate;
    Alcotest.test_case "global having" `Quick test_global_having;
    Alcotest.test_case "limit/offset" `Quick test_limit_offset;
    Alcotest.test_case "distinct" `Quick test_select_distinct;
    Alcotest.test_case "named parameters" `Quick test_select_params;
    Alcotest.test_case "unbound parameter" `Quick test_select_unbound_param;
    Alcotest.test_case "unknown table" `Quick test_select_unknown_table;
    Alcotest.test_case "unknown column" `Quick test_select_unknown_column;
    Alcotest.test_case "cross product join" `Quick test_select_cross_product_join;
    Alcotest.test_case "ambiguous column" `Quick test_select_ambiguous_column;
    Alcotest.test_case "case expression" `Quick test_case_expression_eval;
    Alcotest.test_case "three-valued logic" `Quick test_null_three_valued_logic;
    Alcotest.test_case "IN/BETWEEN/LIKE evaluation" `Quick test_in_between_like_eval;
    Alcotest.test_case "IN null semantics" `Quick test_in_null_semantics;
    Alcotest.test_case "dml insert" `Quick test_dml_insert;
    Alcotest.test_case "dml insert null fill" `Quick test_dml_insert_named_columns_null_fill;
    Alcotest.test_case "dml update (Example 4.3 shape)" `Quick test_dml_update_paper;
    Alcotest.test_case "dml update sees old values" `Quick test_dml_update_sees_old_values;
    Alcotest.test_case "dml delete" `Quick test_dml_delete;
    Alcotest.test_case "dml cursor rids" `Quick test_dml_select_rids_cursor;
    QCheck_alcotest.to_alcotest qcheck_sum_matches_scan;
  ]
