module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Dtype = Vnl_relation.Dtype
module Xorshift = Vnl_util.Xorshift
module View_def = Vnl_warehouse.View_def
module Delta = Vnl_warehouse.Delta
module Source = Vnl_warehouse.Source

let cities =
  [|
    ("San Jose", "CA"); ("Berkeley", "CA"); ("Novato", "CA"); ("Fresno", "CA");
    ("Portland", "OR"); ("Eugene", "OR"); ("Seattle", "WA"); ("Spokane", "WA");
    ("Reno", "NV"); ("Las Vegas", "NV"); ("Phoenix", "AZ"); ("Tucson", "AZ");
  |]

let product_lines =
  [|
    "golf equip"; "racquetball"; "rollerblades"; "tennis"; "running";
    "cycling"; "swimming"; "camping";
  |]

let sales_schema =
  Schema.make
    [
      Schema.attr "city" (Dtype.Str 20);
      Schema.attr "state" (Dtype.Str 2);
      Schema.attr "product_line" (Dtype.Str 12);
      Schema.attr "date" Dtype.Date;
      Schema.attr "amount" Dtype.Int;
    ]

let daily_sales_view ?with_count () =
  View_def.make ~name:"DailySales" ~source:sales_schema
    ~group_by:[ "city"; "state"; "product_line"; "date" ]
    ~aggregates:[ ("total_sales", View_def.Sum "amount") ]
    ?with_count ()

(* Day 0 is the paper's 10/14/96; spill into November/December as needed. *)
let date_of_day d =
  let day_of_year = 288 + d in
  let month, day =
    if day_of_year <= 305 then (10, day_of_year - 274)
    else if day_of_year <= 335 then (11, day_of_year - 305)
    else (12, day_of_year - 335)
  in
  Value.date_of_mdy month day 96

let gen_sale rng ~day =
  let city, state = Xorshift.pick rng cities in
  let pl = Xorshift.pick rng product_lines in
  let amount = 10 + Xorshift.int rng 490 in
  Tuple.make sales_schema
    [ Value.Str city; Value.Str state; Value.Str pl; date_of_day day; Value.Int amount ]

let gen_batch rng source ~day ~inserts ~updates ~deletes =
  let ins = List.init inserts (fun _ -> Delta.Insert (gen_sale rng ~day)) in
  (* One snapshot per batch: the source does not change while the batch is
     generated, so each victim is an array index (the same [Xorshift.int]
     draw over the same oldest-first rows) instead of an O(rows) walk. *)
  let live = Array.of_list (Source.rows source) in
  let pick_existing () =
    if Array.length live = 0 then None else Some (Xorshift.pick rng live)
  in
  (* Corrections (amount restated) and returns (sale removed) against rows
     already at the source.  Victims are drawn without tracking collisions;
     a row picked twice in one batch would make the delta inconsistent, so
     sample conservatively and skip duplicates. *)
  let touched = Hashtbl.create 16 in
  let fresh row =
    let key = String.concat "|" (Tuple.to_strings row) in
    if Hashtbl.mem touched key then false
    else begin
      Hashtbl.add touched key ();
      true
    end
  in
  let upd =
    List.filter_map
      (fun _ ->
        match pick_existing () with
        | Some row when fresh row ->
          let delta = Xorshift.int_in rng (-50) 150 in
          let amount =
            match Tuple.get row 4 with Value.Int a -> max 1 (a + delta) | _ -> 1
          in
          Some (Delta.Update (row, Tuple.set row 4 (Value.Int amount)))
        | Some _ | None -> None)
      (List.init updates (fun i -> i))
  in
  let del =
    List.filter_map
      (fun _ ->
        match pick_existing () with
        | Some row when fresh row -> Some (Delta.Delete row)
        | Some _ | None -> None)
      (List.init deletes (fun i -> i))
  in
  ins @ upd @ del

let initial_load rng ~days ~sales_per_day =
  List.concat_map
    (fun day -> List.init sales_per_day (fun _ -> Delta.Insert (gen_sale rng ~day)))
    (List.init days (fun d -> d))
