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

(* ---------- crash-sweep helpers ---------- *)

module Disk = Vnl_storage.Disk

(* Parse a saved image's catalog off the platter, as reopen does: the
   header's text length and live content pages, then the text.  Returns the
   text and the catalog page set (header, live and spare pages). *)
let catalog_of disk =
  let raw = Bytes.to_string (Disk.read disk 0) in
  let first, rest =
    match String.split_on_char '\n' raw with
    | first :: rest -> (first, rest)
    | [] -> Alcotest.fail "empty catalog header"
  in
  let length, live =
    match String.split_on_char ' ' first with
    | _magic :: len :: pids -> (int_of_string len, List.filter_map int_of_string_opt pids)
    | _ -> Alcotest.fail "bad catalog header"
  in
  let spare =
    match rest with
    | line :: _ when String.length line >= 5 && String.sub line 0 5 = "spare" ->
      List.filter_map int_of_string_opt
        (String.split_on_char ' ' (String.sub line 5 (String.length line - 5)))
    | _ -> []
  in
  let buf = Buffer.create length in
  List.iter
    (fun pid ->
      let img = Disk.read disk pid in
      Buffer.add_subbytes buf img 0 (min (Bytes.length img) (length - Buffer.length buf)))
    live;
  (Buffer.contents buf, List.sort_uniq compare (0 :: live @ spare))

type ladder = {
  writes : int;  (** Physical writes of the commit. *)
  catalog_changed : bool;  (** Whether the on-disk catalog text changed. *)
  first_data : int;  (** 1-based write point of the first data write. *)
}

(* The §7 ladder read off a commit's write sequence.  [setup] prepares a
   fresh clone of [base] (a reopen, say) and [run] drives the commit; one
   fault-free run gives the write count and the catalog before and after,
   then each write point k is replayed with the disk armed to crash at k
   and the crashing write's page read off [Disk.stats].  The flag's
   Version-page write must come first and a publish's last, with a data
   write between; each of the [publishes] VN publishes (one per stripe)
   writes the Version page once more; the header (page 0) and the catalog
   content pages are written exactly when the catalog text changed. *)
let check_ladder ?(publishes = 1) ~ctx base ~setup ~run =
  let d = Disk.clone base in
  let vnl = setup d in
  let catalog_before, _ = catalog_of d in
  Disk.reset_stats d;
  run vnl;
  let writes = (Disk.stats d).Disk.writes in
  let catalog_after, catalog_pages = catalog_of d in
  let catalog_changed = not (String.equal catalog_before catalog_after) in
  let version_page =
    Vnl_core.Version_state.storage_page (Vnl_core.Twovnl.version_state vnl)
  in
  let pids =
    List.init writes (fun k ->
        let d = Disk.clone base in
        let vnl = setup d in
        Disk.set_faults d { Disk.no_faults with crash_at_write = Some (k + 1) };
        Disk.reset_stats d;
        (try run vnl with Disk.Crash _ -> ());
        let s = Disk.stats d in
        if s.Disk.writes <> k + 1 then Alcotest.failf "%s: no crash at write %d" ctx (k + 1);
        s.Disk.last_write)
  in
  let is_data pid = pid <> version_page && not (List.mem pid catalog_pages) in
  let count p = List.length (List.filter p pids) in
  if List.nth_opt pids 0 <> Some version_page then
    Alcotest.failf "%s: the first write is not the flag's Version page" ctx;
  if List.nth_opt pids (writes - 1) <> Some version_page then
    Alcotest.failf "%s: the last write is not the publish's Version page" ctx;
  Alcotest.(check int) (ctx ^ ": Version-page writes (flag + publishes)") (1 + publishes)
    (count (Int.equal version_page));
  Alcotest.(check bool) (ctx ^ ": header written iff the catalog changed") catalog_changed
    (List.mem 0 pids);
  Alcotest.(check bool) (ctx ^ ": catalog pages written iff the catalog changed")
    catalog_changed
    (count (fun pid -> pid <> 0 && List.mem pid catalog_pages) > 0);
  match List.find_index is_data pids with
  | Some i -> { writes; catalog_changed; first_data = i + 1 }
  | None -> Alcotest.failf "%s: no data write between the flag and the publish" ctx

(* ---------- hand-built refresh rounds ---------- *)

let op_key base = function
  | Vnl_core.Batch.Insert t -> Tuple.key_of base t
  | Vnl_core.Batch.Update (k, _) | Vnl_core.Batch.Delete k -> k

(* A refresh round's changes for the table's [ops] (at most one per key in
   a round): each key probed against the table's current state, and each
   change deciding its own operation whatever the stored record holds. *)
let changes_of_ops vnl name ops =
  let h = Vnl_core.Twovnl.handle_exn vnl name in
  let table = Vnl_core.Twovnl.table h and base = Schema_ext.base (Vnl_core.Twovnl.ext h) in
  List.map
    (fun op ->
      let key = op_key base op in
      {
        Vnl_core.Batch.key;
        rid = Option.map fst (Table.find_by_key table key);
        decide = (fun _ -> [ op ]);
      })
    ops

(* [Pipeline.stripe_keys] with each key mapped back to its operation in
   [per_table] (the ops a round of [changes_of_ops] was built from): the
   round's serial reference schedule. *)
let stripe_ops vnl plan per_table =
  List.map
    (fun (vn, stripe) ->
      ( vn,
        List.map
          (fun (name, keys) ->
            let base =
              Schema_ext.base (Vnl_core.Twovnl.ext (Vnl_core.Twovnl.handle_exn vnl name))
            in
            let ops = List.assoc name per_table in
            let of_key key =
              List.find (fun op -> List.equal Value.equal (op_key base op) key) ops
            in
            (name, List.map of_key keys))
          stripe ))
    (Vnl_core.Pipeline.stripe_keys plan)
