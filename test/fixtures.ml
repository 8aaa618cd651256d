(* Shared fixtures: the paper's DailySales relation and the worked-example
   states of Figures 4-6. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Schema_ext = Vnl_core.Schema_ext
module Op = Vnl_core.Op
module Database = Vnl_query.Database
module Table = Vnl_query.Table

(* Example 2.1 / Figure 3. *)
let daily_sales =
  Schema.make
    [
      Schema.attr ~key:true "city" (Dtype.Str 20);
      Schema.attr ~key:true "state" (Dtype.Str 2);
      Schema.attr ~key:true "product_line" (Dtype.Str 12);
      Schema.attr ~key:true "date" Dtype.Date;
      Schema.attr ~updatable:true "total_sales" Dtype.Int;
    ]

let base_row city state pl m d y sales =
  Tuple.make daily_sales
    [ Value.Str city; Value.Str state; Value.Str pl; Value.date_of_mdy m d y; Value.Int sales ]

(* An extended DailySales tuple in 2VNL layout:
   (tupleVN, operation, city, state, product_line, date, total_sales,
    pre_total_sales). *)
let ext_row ext vn op city state pl m d y sales pre_sales =
  Tuple.make (Schema_ext.extended ext)
    [
      Value.Int vn;
      Op.to_value op;
      Value.Str city;
      Value.Str state;
      Value.Str pl;
      Value.date_of_mdy m d y;
      Value.Int sales;
      pre_sales;
    ]

(* Figure 4: the example relation state before the VN-5 transaction. *)
let figure4_rows ext =
  [
    ext_row ext 3 Op.Insert "San Jose" "CA" "golf equip" 10 14 96 10000 Value.Null;
    ext_row ext 4 Op.Insert "San Jose" "CA" "golf equip" 10 15 96 1500 Value.Null;
    ext_row ext 4 Op.Update "Berkeley" "CA" "racquetball" 10 14 96 12000 (Value.Int 10000);
    ext_row ext 4 Op.Delete "Novato" "CA" "rollerblades" 10 13 96 8000 (Value.Int 8000);
  ]

(* A database holding one extended DailySales table loaded with Figure 4. *)
let figure4_table () =
  let db = Database.create () in
  let ext = Schema_ext.extend daily_sales in
  let table = Database.create_table db "DailySales" (Schema_ext.extended ext) in
  List.iter (fun t -> ignore (Table.insert table t)) (figure4_rows ext);
  (db, ext, table)

(* Figure 6: expected state after the Figure 5 transaction (VN 5), as
   (vn, op, city, pl, date-day, total_sales, pre_total_sales) tuples for
   compact comparison. *)
let figure6_expected =
  [
    (5, "update", "San Jose", "golf equip", 14, Value.Int 10200, Value.Int 10000);
    (4, "insert", "San Jose", "golf equip", 15, Value.Int 1500, Value.Null);
    (5, "delete", "Berkeley", "racquetball", 14, Value.Int 12000, Value.Int 12000);
    (5, "insert", "Novato", "rollerblades", 13, Value.Int 6000, Value.Null);
    (5, "insert", "San Jose", "golf equip", 16, Value.Int 11000, Value.Null);
  ]

let summarize_ext ext tuple =
  let get name = Tuple.get_by_name (Schema_ext.extended ext) tuple name in
  let vn = match get "tupleVN" with Value.Int n -> n | _ -> -1 in
  let op = Op.to_string (Op.of_value (get "operation")) in
  let city = Value.to_string (get "city") in
  let pl = Value.to_string (get "product_line") in
  let day = match get "date" with Value.Date d -> d mod 100 | _ -> -1 in
  (vn, op, city, pl, day, get "total_sales", get "pre_total_sales")

type summary = int * string * string * string * int * Value.t * Value.t

let sort_summaries (l : summary list) = List.sort compare l

let summary_testable =
  let pp ppf (vn, op, city, pl, day, sales, pre) =
    Format.fprintf ppf "(%d,%s,%s,%s,%d,%s,%s)" vn op city pl day (Value.to_string sales)
      (Value.to_string pre)
  in
  Alcotest.testable
    (Fmt.list ~sep:Fmt.semi pp)
    (fun a b ->
      List.equal
        (fun (v1, o1, c1, p1, d1, s1, r1) (v2, o2, c2, p2, d2, s2, r2) ->
          v1 = v2 && o1 = o2 && c1 = c2 && p1 = p2 && d1 = d2 && Value.equal s1 s2
          && Value.equal r1 r2)
        a b)

let base_testable =
  Alcotest.testable
    (Fmt.list ~sep:Fmt.semi (fun ppf t -> Tuple.pp daily_sales ppf t))
    (fun a b -> List.equal Tuple.equal a b)

(* One-shot SQL through the engine's evaluator: parse, compile, run. *)
let sql db ?params src =
  Vnl_query.Plan.execute ?params (Vnl_query.Plan.prepare db (Vnl_sql.Parser.parse_select src))
