(* The §2 motivation, made concrete: an analyst drills down into city sales
   while a large maintenance transaction reshapes the warehouse.

   Run with:  dune exec examples/analyst_drilldown.exe

   Under 2VNL the drill-down always adds up to the overview; with
   read-uncommitted access (what you would get by simply ignoring write
   locks without versioning) the same pair of queries tears. *)

module Value = Vnl_relation.Value
module Plan = Vnl_query.Plan
module Twovnl = Vnl_core.Twovnl
module Warehouse = Vnl_warehouse.Warehouse
module Summary = Vnl_warehouse.Summary
module Sales_gen = Vnl_workload.Sales_gen
module Xorshift = Vnl_util.Xorshift

let city = "San Jose"

let total_of rows =
  List.fold_left
    (fun acc row -> match row with [ Value.Int n ] -> acc + n | _ -> acc)
    0 rows

let overview query =
  total_of
    (query (Printf.sprintf "SELECT SUM(total_sales) FROM DailySales WHERE city = '%s'" city))
      .Plan.rows

let drilldown query =
  let rows =
    (query
       (Printf.sprintf
          "SELECT product_line, SUM(total_sales) FROM DailySales WHERE city = '%s' \
           GROUP BY product_line ORDER BY product_line"
          city))
      .Plan.rows
  in
  List.map
    (function
      | [ Value.Str pl; Value.Int n ] -> (pl, n)
      | _ -> ("?", 0))
    rows

let () =
  let rng = Xorshift.create 2024 in
  let wh = Warehouse.create ~pool_capacity:256 [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.initial_load rng ~days:5 ~sales_per_day:200);
  ignore (Warehouse.refresh wh);

  (* The analyst begins a session, then maintenance starts applying a large
     day's batch in chunks; between the analyst's two queries, thousands of
     updates land. *)
  let session = Warehouse.begin_session wh in
  let vnl = Warehouse.vnl wh in
  let txn = Twovnl.Txn.begin_ vnl in

  let consistent_query sql = Warehouse.query wh session sql in
  let dirty_query sql =
    (* Read-uncommitted: always look at the latest (possibly mid-transaction)
       version. *)
    let vn = Twovnl.current_vn vnl + 1 in
    Plan.execute
      ~params:[ ("sessionVN", Value.Int vn) ]
      (Plan.prepare (Warehouse.database wh)
         (Vnl_core.Rewrite.reader_select ~lookup:(Twovnl.lookup vnl)
            (Vnl_sql.Parser.parse_select sql)))
  in

  Printf.printf "Analyst asks for the %s overview (session version %d):\n" city
    (Twovnl.Session.vn session);
  let total_before = overview consistent_query in
  let dirty_before = overview dirty_query in
  Printf.printf "  2VNL total:            %d\n" total_before;
  Printf.printf "  read-uncommitted total: %d\n\n" dirty_before;

  Printf.printf "...maintenance applies half of the day's batch...\n\n";
  let src = Warehouse.source wh "DailySales" in
  let batch = Sales_gen.gen_batch rng src ~day:6 ~inserts:400 ~updates:120 ~deletes:40 in
  Warehouse.queue_changes wh ~view:"DailySales" batch;
  let pending = Warehouse.take_pending wh ~view:"DailySales" in
  let half = List.filteri (fun i _ -> i < List.length pending / 2) pending in
  let rest = List.filteri (fun i _ -> i >= List.length pending / 2) pending in
  ignore (Summary.apply_batch txn (Warehouse.view wh "DailySales") half);

  Printf.printf "Analyst drills down into product lines:\n";
  let drill = drilldown consistent_query in
  List.iter (fun (pl, n) -> Printf.printf "  %-14s %8d\n" pl n) drill;
  let drill_total = List.fold_left (fun acc (_, n) -> acc + n) 0 drill in
  Printf.printf "  %-14s %8d  (overview said %d)\n" "SUM" drill_total total_before;
  Printf.printf "  consistent? %b\n\n" (drill_total = total_before);

  let dirty_drill = drilldown dirty_query in
  let dirty_total = List.fold_left (fun acc (_, n) -> acc + n) 0 dirty_drill in
  Printf.printf "The same drill-down under read-uncommitted sums to %d\n" dirty_total;
  Printf.printf "  vs. its own earlier overview %d -- consistent? %b\n\n" dirty_before
    (dirty_total = dirty_before);

  ignore (Summary.apply_batch txn (Warehouse.view wh "DailySales") rest);
  Twovnl.Txn.commit txn;
  Printf.printf "Maintenance committed (currentVN = %d).\n" (Twovnl.current_vn vnl);
  Printf.printf "The analyst's session still answers with its original version: %d\n"
    (overview consistent_query);
  let fresh = Warehouse.begin_session wh in
  Printf.printf "A new session sees the maintained warehouse:            %d\n"
    (overview (Warehouse.query wh fresh))
