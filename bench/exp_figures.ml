(* Regeneration of the paper's worked examples: Figures 3-7, Tables 1-4,
   Examples 2.1, 3.2, 3.3, 4.1-4.4 and 5.1.  Each experiment prints the
   artifact as computed by the implementation and, where the paper gives the
   expected content, checks it. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Plan = Vnl_query.Plan
module Op = Vnl_core.Op
module Schema_ext = Vnl_core.Schema_ext
module Reader = Vnl_core.Reader
module Maintenance = Vnl_core.Maintenance
module Rewrite = Vnl_core.Rewrite
module T = Vnl_util.Ascii_table

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

let ext_row ext vn op city state pl m d y sales pre =
  Tuple.make (Schema_ext.extended ext)
    [ Value.Int vn; Op.to_value op; Value.Str city; Value.Str state; Value.Str pl;
      Value.date_of_mdy m d y; Value.Int sales; pre ]

let figure4_table () =
  let db = Database.create () in
  let ext = Schema_ext.extend daily_sales in
  let table = Database.create_table db "DailySales" (Schema_ext.extended ext) in
  List.iter
    (fun t -> ignore (Table.insert table t))
    [
      ext_row ext 3 Op.Insert "San Jose" "CA" "golf equip" 10 14 96 10000 Value.Null;
      ext_row ext 4 Op.Insert "San Jose" "CA" "golf equip" 10 15 96 1500 Value.Null;
      ext_row ext 4 Op.Update "Berkeley" "CA" "racquetball" 10 14 96 12000 (Value.Int 10000);
      ext_row ext 4 Op.Delete "Novato" "CA" "rollerblades" 10 13 96 8000 (Value.Int 8000);
    ];
  (db, ext, table)

let print_extended ext table =
  let header = Schema.names (Schema_ext.extended ext) in
  let rows =
    List.map
      (fun (_, t) ->
        List.map2
          (fun name v ->
            if String.equal name "operation" then Op.to_string (Op.of_value v)
            else Value.to_string v)
          header (Tuple.values t))
      (Table.to_list table)
  in
  T.print ~header rows

(* ---------- FIG3: extended schema and storage overhead ---------- *)

let fig3 () =
  T.section "FIG3  Extended DailySales schema (paper Figure 3)";
  let ext = Schema_ext.extend daily_sales in
  let e = Schema_ext.extended ext in
  T.print ~header:[ "attribute"; "type"; "bytes"; "role" ]
    (List.map
       (fun a ->
         let role =
           if a.Schema.key then "key (group-by)"
           else if a.Schema.updatable then "updatable"
           else if Schema_ext.is_extended_attribute ext a.Schema.name then "2VNL bookkeeping"
           else ""
         in
         [ a.Schema.name; Dtype.to_string a.Schema.dtype;
           string_of_int (Dtype.width a.Schema.dtype); role ])
       (Schema.attributes e));
  Printf.printf
    "base tuple %d bytes -> extended %d bytes: +%d bytes (%.1f%%)  [paper: 42 -> 51, ~20%%]\n"
    (Schema.width daily_sales) (Schema.width e) (Schema_ext.width_overhead ext)
    (100.0 *. Schema_ext.overhead_ratio ext)

(* ---------- FIG4 + EX3.2: reader extraction ---------- *)

let fig4 () =
  T.section "FIG4 + EX3.2  Example relation state and the sessionVN=3 view";
  let _db, ext, table = figure4_table () in
  print_endline "Extended relation (paper Figure 4):";
  print_extended ext table;
  print_endline "\nA reader with sessionVN = 3 sees (paper Example 3.2):";
  let view = Reader.visible_relation ext ~session_vn:3 table in
  T.print ~header:(Schema.names daily_sales) (List.map Tuple.to_strings view);
  let expected =
    List.sort Tuple.compare
      [
        base_row "San Jose" "CA" "golf equip" 10 14 96 10000;
        base_row "Berkeley" "CA" "racquetball" 10 14 96 10000;
        base_row "Novato" "CA" "rollerblades" 10 13 96 8000;
      ]
  in
  Printf.printf "matches the paper: %b\n"
    (List.equal Tuple.equal expected (List.sort Tuple.compare view))

(* ---------- TAB1: read decision table ---------- *)

let tab1 () =
  T.section "TAB1  Decision table for extracting tuple versions (paper Table 1)";
  let ext = Schema_ext.extend daily_sales in
  let probe ~session_vn op =
    let tuple = ext_row ext 5 op "X" "CA" "pl" 1 1 99 100 (Value.Int 50) in
    match Reader.extract ext ~session_vn tuple with
    | None -> "ignore tuple"
    | Some t -> (
      match Tuple.get t 4 with
      | Value.Int 100 -> "read current attribute values"
      | Value.Int 50 -> "read pre-update attribute values"
      | v -> "read " ^ Value.to_string v)
  in
  T.print ~header:[ "version wanted"; "insert"; "update"; "delete" ]
    [
      [ "current (sessionVN >= tupleVN)"; probe ~session_vn:5 Op.Insert;
        probe ~session_vn:5 Op.Update; probe ~session_vn:5 Op.Delete ];
      [ "pre-update (sessionVN = tupleVN-1)"; probe ~session_vn:4 Op.Insert;
        probe ~session_vn:4 Op.Update; probe ~session_vn:4 Op.Delete ];
    ]

(* ---------- TAB2-4: maintenance decision tables ---------- *)

let tab234 () =
  T.section "TAB2-4  Maintenance decision tables (paper Tables 2-4)";
  (* Build a one-tuple table in a given (tupleVN, operation) state, apply a
     maintenance operation at vn 5, and describe the physical outcome. *)
  let describe maint_op ~prev_op ~prev_vn =
    let db = Database.create () in
    let ext = Schema_ext.extend daily_sales in
    let table = Database.create_table db "T" (Schema_ext.extended ext) in
    let rid =
      match prev_op with
      | None -> None
      | Some op ->
        Some (Table.insert table (ext_row ext prev_vn op "X" "CA" "pl" 1 1 99 100 (Value.Int 50)))
    in
    let outcome () =
      match (rid, Table.to_list table) with
      | Some r, _ -> (
        match Table.get table r with
        | None -> "physical delete"
        | Some t ->
          let vn = Option.get (Schema_ext.tuple_vn ext ~slot:1 t) in
          let op = Op.to_string (Schema_ext.operation ext ~slot:1 t) in
          let pre = Value.to_string (Tuple.get t (Schema_ext.pre_index ext ~slot:1 4)) in
          Printf.sprintf "update: vn=%d op=%s pre=%s" vn op pre)
      | None, [ (_, t) ] ->
        let op = Op.to_string (Schema_ext.operation ext ~slot:1 t) in
        Printf.sprintf "insert fresh tuple (op=%s)" op
      | None, _ -> "no tuple"
    in
    try
      (match maint_op with
      | `Insert -> ignore (Maintenance.apply_insert ext table ~vn:5 (base_row "X" "CA" "pl" 1 1 99 900))
      | `Update ->
        (match rid with
        | Some r -> Maintenance.apply_update ext table ~vn:5 r [ (4, Value.Int 900) ]
        | None -> failwith "n/a")
      | `Delete -> (
        match rid with Some r -> Maintenance.apply_delete ext table ~vn:5 r | None -> failwith "n/a"));
      outcome ()
    with
    | Op.Impossible _ -> "impossible"
    | Failure _ -> "n/a"
  in
  let table_for title maint_op =
    T.subsection title;
    T.print ~header:[ "previous state of tuple"; "action at maintenanceVN=5" ]
      [
        [ "no conflicting tuple"; describe maint_op ~prev_op:None ~prev_vn:0 ];
        [ "tupleVN<5, op=insert"; describe maint_op ~prev_op:(Some Op.Insert) ~prev_vn:3 ];
        [ "tupleVN<5, op=update"; describe maint_op ~prev_op:(Some Op.Update) ~prev_vn:3 ];
        [ "tupleVN<5, op=delete"; describe maint_op ~prev_op:(Some Op.Delete) ~prev_vn:3 ];
        [ "tupleVN=5, op=insert"; describe maint_op ~prev_op:(Some Op.Insert) ~prev_vn:5 ];
        [ "tupleVN=5, op=update"; describe maint_op ~prev_op:(Some Op.Update) ~prev_vn:5 ];
        [ "tupleVN=5, op=delete"; describe maint_op ~prev_op:(Some Op.Delete) ~prev_vn:5 ];
      ]
  in
  table_for "Table 2: logical INSERT" `Insert;
  table_for "Table 3: logical UPDATE" `Update;
  table_for "Table 4: logical DELETE" `Delete

(* ---------- FIG5/6 + EX3.3 ---------- *)

let fig56 () =
  T.section "FIG5+FIG6  The maintenanceVN=5 transaction on the Figure 4 state";
  let _db, ext, table = figure4_table () in
  print_endline "Maintenance operations (paper Figure 5):";
  print_endline "  insert (San Jose, CA, golf equip, 10/16/96, 11,000)";
  print_endline "  insert (Novato, CA, rollerblades, 10/13/96, 6,000)";
  print_endline "  update (San Jose, CA, golf equip, 10/14/96): 10,000 -> 10,200";
  print_endline "  delete (Berkeley, CA, racquetball, 10/14/96)";
  let stats = Maintenance.fresh_stats () in
  let key city pl m d y =
    [ Value.Str city; Value.Str "CA"; Value.Str pl; Value.date_of_mdy m d y ]
  in
  ignore (Maintenance.apply_insert ~stats ext table ~vn:5 (base_row "San Jose" "CA" "golf equip" 10 16 96 11000));
  ignore (Maintenance.apply_insert ~stats ext table ~vn:5 (base_row "Novato" "CA" "rollerblades" 10 13 96 6000));
  (match Table.find_by_key table (key "San Jose" "golf equip" 10 14 96) with
  | Some (rid, _) -> Maintenance.apply_update ~stats ext table ~vn:5 rid [ (4, Value.Int 10200) ]
  | None -> ());
  (match Table.find_by_key table (key "Berkeley" "racquetball" 10 14 96) with
  | Some (rid, _) -> Maintenance.apply_delete ~stats ext table ~vn:5 rid
  | None -> ());
  print_endline "\nResulting extended relation (paper Figure 6):";
  print_extended ext table;
  Printf.printf
    "physical operations: %d inserts, %d updates, %d deletes for %d logical ops\n"
    stats.Maintenance.physical_inserts stats.Maintenance.physical_updates
    stats.Maintenance.physical_deletes
    (stats.Maintenance.logical_inserts + stats.Maintenance.logical_updates
    + stats.Maintenance.logical_deletes);
  print_endline "(note the Novato insert became a physical update of the deleted tuple)"

(* ---------- EX4.1: reader query rewrite ---------- *)

let ex41 () =
  T.section "EX4.1  Query rewrite for readers (paper Example 4.1)";
  let db, ext, table = figure4_table () in
  ignore table;
  let lookup name = if name = "DailySales" then Some ext else None in
  let sql = "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state" in
  Printf.printf "original:  %s\nrewritten: %s\n\n" sql (Rewrite.reader_sql ~lookup sql);
  print_endline "Executing the rewritten query with :sessionVN = 3:";
  let r =
    Plan.execute
      ~params:[ ("sessionVN", Value.Int 3) ]
      (Plan.prepare db (Rewrite.reader_select ~lookup (Vnl_sql.Parser.parse_select sql)))
  in
  Format.printf "%a@." Plan.pp_result r

(* ---------- EX4.2-4.4: maintenance statement rewrites ---------- *)

let ex42_44 () =
  T.section "EX4.2-4.4  Maintenance statement rewrites (cursor approach)";
  let db, ext, table = figure4_table () in
  let lookup name = if name = "DailySales" then Some ext else None in
  let run label sql =
    let stats = Maintenance.fresh_stats () in
    let n = Rewrite.maintenance_sql ~stats db ~lookup ~vn:5 sql in
    Printf.printf "%s\n  %s\n  -> %d logical ops; physical: %d ins / %d upd / %d del\n" label sql
      n stats.Maintenance.physical_inserts stats.Maintenance.physical_updates
      stats.Maintenance.physical_deletes
  in
  run "EX4.2 INSERT with key conflict on a deleted tuple:"
    "INSERT INTO DailySales VALUES ('Novato', 'CA', 'rollerblades', DATE '10/13/96', 6000)";
  run "EX4.3 UPDATE adds 1,000 to San Jose 10/14:"
    "UPDATE DailySales SET total_sales = total_sales + 1000 \
     WHERE city = 'San Jose' AND date = DATE '10/14/96'";
  run "EX4.4 DELETE San Jose 10/15:"
    "DELETE FROM DailySales WHERE city = 'San Jose' AND date = DATE '10/15/96'";
  print_endline "\nResulting extended relation:";
  print_extended ext table

(* ---------- FIG7 + EX5.1: 4VNL ---------- *)

let fig7 () =
  T.section "FIG7 + EX5.1  A 4VNL tuple across three maintenance transactions";
  let db = Database.create () in
  let ext = Schema_ext.extend ~n:4 daily_sales in
  let table = Database.create_table db "DailySales" (Schema_ext.extended ext) in
  let rid = Maintenance.apply_insert ext table ~vn:3 (base_row "San Jose" "CA" "golf equip" 10 14 96 10000) in
  Maintenance.apply_update ext table ~vn:5 rid [ (4, Value.Int 10200) ];
  Maintenance.apply_delete ext table ~vn:6 rid;
  let t = Option.get (Table.get table rid) in
  print_endline "insert@3 (10,000), update@5 (10,200), delete@6 yields (paper Figure 7):";
  T.print ~header:[ "slot"; "tupleVN"; "operation"; "pre_total_sales" ]
    (List.map
       (fun slot ->
         [
           string_of_int slot;
           (match Schema_ext.tuple_vn ext ~slot t with Some v -> string_of_int v | None -> "-");
           (match Schema_ext.tuple_vn ext ~slot t with
           | Some _ -> Op.to_string (Schema_ext.operation ext ~slot t)
           | None -> "-");
           Value.to_string (Tuple.get t (Schema_ext.pre_index ext ~slot 4));
         ])
       [ 1; 2; 3 ]);
  Printf.printf "current total_sales = %s\n\n"
    (Value.to_string (Tuple.get t (Schema_ext.base_index ext 4)));
  print_endline "Visibility by sessionVN (paper Example 5.1):";
  T.print ~header:[ "sessionVN"; "reader sees" ]
    (List.map
       (fun s ->
         let outcome =
           try
             match Reader.extract ext ~session_vn:s t with
             | None -> "ignores the tuple"
             | Some b -> "total_sales = " ^ Value.to_string (Tuple.get b 4)
           with Reader.Session_expired _ -> "session expired"
         in
         [ string_of_int s; outcome ])
       [ 7; 6; 5; 4; 3; 2; 1 ])

let run () =
  fig3 ();
  fig4 ();
  tab1 ();
  tab234 ();
  fig56 ();
  ex41 ();
  ex42_44 ();
  fig7 ()
