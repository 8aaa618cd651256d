(* Quickstart: a DailySales warehouse maintained on-line under 2VNL.

   Run with:  dune exec examples/quickstart.exe

   The example walks the paper's core scenario end to end: register a
   summary table, load it, open an analyst session, run a maintenance
   transaction concurrently, and observe that the session's answers never
   change until it opts into the new version. *)

module Value = Vnl_relation.Value
module Database = Vnl_query.Database
module Plan = Vnl_query.Plan
module Twovnl = Vnl_core.Twovnl
module Rewrite = Vnl_core.Rewrite

let banner title = Printf.printf "\n== %s ==\n" title

let show result = Format.printf "%a\n" Plan.pp_result result

let () =
  banner "1. Create the warehouse and register DailySales under 2VNL";
  let db = Database.create () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:"DailySales" Fixtures_schema.daily_sales);
  Twovnl.load_initial wh "DailySales"
    [
      Fixtures_schema.row "San Jose" "CA" "golf equip" 10 14 96 10000;
      Fixtures_schema.row "San Jose" "CA" "golf equip" 10 15 96 1500;
      Fixtures_schema.row "Berkeley" "CA" "racquetball" 10 14 96 12000;
      Fixtures_schema.row "Novato" "CA" "rollerblades" 10 13 96 8000;
    ];
  Printf.printf "Loaded 4 tuples; currentVN = %d\n" (Twovnl.current_vn wh);

  banner "2. An analyst session sees a consistent snapshot";
  let session = Twovnl.Session.begin_ wh in
  let totals_sql = "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state" in
  Printf.printf "Query:     %s\nRewritten: %s\n" totals_sql
    (Rewrite.reader_sql ~lookup:(Twovnl.lookup wh) totals_sql);
  show (Twovnl.Session.query wh session totals_sql);

  banner "3. A maintenance transaction runs concurrently";
  let txn = Twovnl.Txn.begin_ wh in
  Printf.printf "maintenanceVN = %d (session still reads version %d)\n" (Twovnl.Txn.vn txn)
    (Twovnl.Session.vn session);
  ignore
    (Twovnl.Txn.sql txn
       "UPDATE DailySales SET total_sales = total_sales + 1000 WHERE city = 'San Jose'");
  ignore (Twovnl.Txn.sql txn "DELETE FROM DailySales WHERE city = 'Berkeley'");
  ignore
    (Twovnl.Txn.sql txn
       "INSERT INTO DailySales VALUES ('Fresno', 'CA', 'tennis', DATE '10/16/96', 700)");
  Printf.printf "The session's answer is unchanged while the transaction is active:\n";
  show (Twovnl.Session.query wh session totals_sql);

  banner "4. Commit: the session still reads its version (serializable)";
  Twovnl.Txn.commit txn;
  Printf.printf "currentVN is now %d; the session still sees version %d:\n"
    (Twovnl.current_vn wh) (Twovnl.Session.vn session);
  show (Twovnl.Session.query wh session totals_sql);

  banner "5. A new session sees the maintained warehouse";
  let fresh = Twovnl.Session.begin_ wh in
  show (Twovnl.Session.query wh fresh totals_sql);

  banner "6. Storage cost of the two versions (Figure 3)";
  let handle = Twovnl.handle_exn wh "DailySales" in
  let ext = Twovnl.ext handle in
  Printf.printf
    "base tuple: %d bytes; extended: %d bytes; overhead %d bytes (%.1f%%)\n"
    (Vnl_relation.Schema.width (Vnl_core.Schema_ext.base ext))
    (Vnl_relation.Schema.width (Vnl_core.Schema_ext.extended ext))
    (Vnl_core.Schema_ext.width_overhead ext)
    (100.0 *. Vnl_core.Schema_ext.overhead_ratio ext)
