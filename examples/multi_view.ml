(* Multiple summary tables maintained in one transaction.

   Run with:  dune exec examples/multi_view.exe

   Warehouses materialize several views over the same source (§1: "a
   warehouse may contain many materialized views").  Because one 2VNL
   maintenance transaction refreshes all of them and readers are
   serializable with it, a session sees the views *mutually* consistent:
   the product-line roll-up always agrees with the daily table, even while
   a refresh is running. *)

module Value = Vnl_relation.Value
module Plan = Vnl_query.Plan
module Twovnl = Vnl_core.Twovnl
module View_def = Vnl_warehouse.View_def
module Warehouse = Vnl_warehouse.Warehouse
module Summary = Vnl_warehouse.Summary
module Sales_gen = Vnl_workload.Sales_gen
module Xorshift = Vnl_util.Xorshift

(* A roll-up of DailySales: totals per product line, all cities and days. *)
let product_totals =
  View_def.make ~name:"ProductTotals" ~source:Sales_gen.sales_schema
    ~group_by:[ "product_line" ]
    ~aggregates:[ ("total_sales", View_def.Sum "amount") ]
    ()

let grand_total query table =
  match
    (query (Printf.sprintf "SELECT SUM(total_sales) FROM %s" table)).Plan.rows
  with
  | [ [ Value.Int n ] ] -> n
  | _ -> 0

let () =
  let rng = Xorshift.create 99 in
  let wh =
    Warehouse.create ~pool_capacity:256 [ Sales_gen.daily_sales_view (); product_totals ]
  in
  (* The two views summarize the same source stream: feed both queues. *)
  let feed changes =
    Warehouse.queue_changes wh ~view:"DailySales" changes;
    Warehouse.queue_changes wh ~view:"ProductTotals" changes
  in
  feed (Sales_gen.initial_load rng ~days:4 ~sales_per_day:150);
  ignore (Warehouse.refresh wh);

  let session = Warehouse.begin_session wh in
  let q sql = Warehouse.query wh session sql in
  Printf.printf "Session at version %d:\n" (Twovnl.Session.vn (session));
  Printf.printf "  grand total via DailySales:    %d\n" (grand_total q "DailySales");
  Printf.printf "  grand total via ProductTotals: %d\n\n" (grand_total q "ProductTotals");

  (* A maintenance transaction refreshes both views; check cross-view
     consistency mid-transaction and after commit. *)
  let txn = Twovnl.Txn.begin_ (Warehouse.vnl wh) in
  let src = Warehouse.source wh "DailySales" in
  let batch = Sales_gen.gen_batch rng src ~day:5 ~inserts:300 ~updates:60 ~deletes:30 in
  Warehouse.queue_changes wh ~view:"DailySales" batch;
  Warehouse.queue_changes wh ~view:"ProductTotals" batch;
  ignore
    (Summary.apply_batch txn (Warehouse.view wh "DailySales")
       (Warehouse.take_pending wh ~view:"DailySales"));
  Printf.printf "Mid-transaction: DailySales refreshed, ProductTotals not yet.\n";
  let daily_mid = grand_total q "DailySales" in
  let rollup_mid = grand_total q "ProductTotals" in
  Printf.printf "  session still sees DailySales=%d ProductTotals=%d -> consistent: %b\n\n"
    daily_mid rollup_mid (daily_mid = rollup_mid);
  ignore
    (Summary.apply_batch txn (Warehouse.view wh "ProductTotals")
       (Warehouse.take_pending wh ~view:"ProductTotals"));
  Twovnl.Txn.commit txn;

  Printf.printf "After commit (currentVN = %d):\n" (Twovnl.current_vn (Warehouse.vnl wh));
  let daily_old = grand_total q "DailySales" in
  Printf.printf "  old session still: DailySales=%d ProductTotals=%d\n" daily_old
    (grand_total q "ProductTotals");
  let fresh = Warehouse.begin_session wh in
  let qf sql = Warehouse.query wh fresh sql in
  let daily_new = grand_total qf "DailySales" in
  let rollup_new = grand_total qf "ProductTotals" in
  Printf.printf "  new session:       DailySales=%d ProductTotals=%d -> consistent: %b\n"
    daily_new rollup_new (daily_new = rollup_new);
  Printf.printf "\nBoth views moved atomically from version %d to %d; no reader ever saw\n"
    (Twovnl.Session.vn session) (Twovnl.Session.vn fresh);
  Printf.printf "one view refreshed and the other not.\n"
