(* The refresh's page runs against the hand-driven path.

   A refresh probes each group's rid, then classifies and writes every
   changed group on its page bytes ({!Vnl_core.Batch.apply_in_place}).
   The hand-driven path — {!Vnl_warehouse.Summary.apply_batch} inside
   {!Vnl_core.Recovery.run_maintenance} — runs the same executor one
   statement at a time, so the two must leave the same bytes on every
   page, answer every reader alike, and count the same outcomes.  Since
   they share the executor, every session of both is also checked against
   the full-history oracle (Oracle) fed the view recomputed from the
   source after each refresh, the witness that is not the code under
   test:

   - the netting pass's group hash is the unique index's key hash, so the
     probe can reuse it;
   - random change histories over a small group domain (so groups retire
     to zero support and come back: Table 2 row 1 over a logical delete),
     at n = 2 and 3 and one to three workers, against a twin replaying
     each stripe as one hand-driven transaction;
   - a view with a secondary index on its aggregate, refreshed before and
     after an added column, against a twin refreshed by hand. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Schema = Vnl_relation.Schema
module Dtype = Vnl_relation.Dtype
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Disk = Vnl_storage.Disk
module Twovnl = Vnl_core.Twovnl
module Recovery = Vnl_core.Recovery
module Pipeline = Vnl_core.Pipeline
module View_def = Vnl_warehouse.View_def
module Delta = Vnl_warehouse.Delta
module Source = Vnl_warehouse.Source
module Summary = Vnl_warehouse.Summary
module Warehouse = Vnl_warehouse.Warehouse
module Sales_gen = Vnl_workload.Sales_gen
module Xorshift = Vnl_util.Xorshift
module Key = Vnl_index.Hash_index.Key

let check = Alcotest.check

(* ---------- the netting hash is the index's key hash ---------- *)

let key_source =
  Schema.make
    [
      Schema.attr "a" Dtype.Int;
      Schema.attr "b" Dtype.Float;
      Schema.attr "c" (Dtype.Str 4);
      Schema.attr "d" Dtype.Date;
      Schema.attr "amount" Dtype.Int;
    ]

let key_view =
  View_def.make ~name:"Keys" ~source:key_source ~group_by:[ "a"; "b"; "c"; "d" ]
    ~aggregates:[ ("total", View_def.Sum "amount") ]
    ()

(* Rows are built unchecked so that a numeric group cell may be [Int n] or
   [Float (float n)], the two spellings of one key. *)
let qcheck_netting_hash =
  QCheck.Test.make ~name:"netting hash = index key hash, Int n ~ Float n" ~count:200
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Xorshift.create seed in
      let num () =
        let n = Xorshift.int rng 7 - 3 in
        match Xorshift.int rng 3 with
        | 0 -> Value.Int n
        | 1 -> Value.Float (float_of_int n)
        | _ -> Value.Null
      in
      let row () =
        Tuple.unsafe_of_array
          [|
            num ();
            num ();
            (if Xorshift.bool rng then Value.Str "ab" else Value.Null);
            Value.Date (Xorshift.int rng 3);
            Value.Int 1;
          |]
      in
      let respell =
        List.map (function
          | Value.Int n -> Value.Float (float_of_int n)
          | Value.Float f -> Value.Int (int_of_float f)
          | v -> v)
      in
      List.for_all
        (fun (d : Delta.group_delta) -> d.hash = Key.hash d.key && d.hash = Key.hash (respell d.key))
        (Delta.net_group_deltas key_view (List.init 40 (fun _ -> Delta.Insert (row ())))))

(* ---------- shared helpers ---------- *)

let view = Sales_gen.daily_sales_view ()

let name = View_def.name view

(* A small group domain (3 cities x 2 lines x 2 days = 12 groups), so a
   history keeps retiring groups and re-inserting into them. *)
let domain_sale rng =
  let city, state = Sales_gen.cities.(Xorshift.int rng 3) in
  Tuple.make Sales_gen.sales_schema
    [
      Value.Str city;
      Value.Str state;
      Value.Str Sales_gen.product_lines.(Xorshift.int rng 2);
      Sales_gen.date_of_day (Xorshift.int rng 2);
      Value.Int (1 + Xorshift.int rng 50);
    ]

(* One batch against the source's live rows: fresh sales, deletes and
   updates (some moving a sale to another group), and, half the time,
   every sale of one group returned. *)
let gen_batch rng wh =
  let live = Array.of_list (Source.rows (Warehouse.source wh name)) in
  Xorshift.shuffle rng live;
  let n = Array.length live in
  let taken = ref 0 in
  let take k =
    let k = min k (n - !taken) in
    let rows = Array.to_list (Array.sub live !taken k) in
    taken := !taken + k;
    rows
  in
  let deletes = List.map (fun r -> Delta.Delete r) (take (Xorshift.int rng 4)) in
  let updates =
    List.map
      (fun r ->
        let r' =
          if Xorshift.bool rng then Tuple.set r 4 (Value.Int (1 + Xorshift.int rng 50))
          else domain_sale rng
        in
        Delta.Update (r, r'))
      (take (Xorshift.int rng 5))
  in
  let retire =
    if n > !taken && Xorshift.bool rng then begin
      let rest = Array.to_list (Array.sub live !taken (n - !taken)) in
      let g = View_def.group_key view (List.hd rest) in
      List.filter_map
        (fun r -> if View_def.group_key view r = g then Some (Delta.Delete r) else None)
        rest
    end
    else []
  in
  let inserts = List.init (Xorshift.int rng 6) (fun _ -> Delta.Insert (domain_sale rng)) in
  deletes @ updates @ retire @ inserts

let add_outcomes (a : Summary.outcome) (b : Summary.outcome) =
  {
    Summary.groups_inserted = a.groups_inserted + b.groups_inserted;
    groups_updated = a.groups_updated + b.groups_updated;
    groups_deleted = a.groups_deleted + b.groups_deleted;
  }

let no_outcome = { Summary.groups_inserted = 0; groups_updated = 0; groups_deleted = 0 }

let outcome_string (o : Summary.outcome) =
  Printf.sprintf "inserted=%d updated=%d deleted=%d" o.groups_inserted o.groups_updated
    o.groups_deleted

let check_outcome ctx (a : Summary.outcome) (b : Summary.outcome) =
  check Alcotest.string (ctx ^ ": outcomes") (outcome_string b) (outcome_string a)

(* The part of [batch] whose groups are in [keys]: an update straddling
   the set keeps only its half inside (its net effect per group is the
   same). *)
let batch_for keys batch =
  let mem row = List.exists (List.equal Value.equal (View_def.group_key view row)) keys in
  List.filter_map
    (fun change ->
      match change with
      | Delta.Insert r | Delta.Delete r -> if mem r then Some change else None
      | Delta.Update (o, n) -> (
        match (mem o, mem n) with
        | true, true -> Some change
        | false, false -> None
        | true, false -> Some (Delta.Delete o)
        | false, true -> Some (Delta.Insert n)))
    batch

(* Refresh [wh] with [batch] through the page runs, and its twin [twin] by
   hand: each stripe of the round as one [Summary.apply_batch]
   transaction at the stripe's VN.  Returns both outcomes. *)
let refresh_both ~workers wh twin batch =
  Warehouse.queue_changes wh ~view:name batch;
  let stripes = ref [] in
  let run plan =
    stripes := Pipeline.stripe_keys plan;
    Pipeline.run plan
  in
  let got =
    match Warehouse.refresh ~workers ~run wh with [ o ] -> o | _ -> Alcotest.fail "one view"
  in
  let want =
    List.fold_left
      (fun acc (vn, per_table) ->
        let keys = Option.value ~default:[] (List.assoc_opt name per_table) in
        Recovery.run_maintenance (Warehouse.database twin) (Warehouse.vnl twin) (fun txn ->
            check Alcotest.int "twin transaction at the stripe's VN" vn (Twovnl.Txn.vn txn);
            add_outcomes acc
              (Summary.apply_batch txn (Warehouse.view twin name) (batch_for keys batch))))
      no_outcome !stripes
  in
  (got, want)

let read wh s = List.sort Tuple.compare (Warehouse.read_view wh s name)

let check_bytes_identical ctx a b =
  let da = Warehouse.database a and db = Warehouse.database b in
  Database.save da;
  Database.save db;
  let disk_a = Database.disk da and disk_b = Database.disk db in
  check Alcotest.int (ctx ^ ": page counts") (Disk.page_count disk_a) (Disk.page_count disk_b);
  for pid = 0 to Disk.page_count disk_a - 1 do
    if not (Bytes.equal (Disk.read disk_a pid) (Disk.read disk_b pid)) then
      Alcotest.failf "%s: page %d bytes differ" ctx pid
  done

(* ---------- differential: page runs against the hand-driven path ---------- *)

(* Record the view recomputed from the source as the state at [vn]: every
   group the oracle held deleted, every recomputed group inserted. *)
let record_view oracle ~vn tuples =
  let target = View_def.target_schema view in
  Oracle.apply_txn oracle ~vn
    (List.map (fun t -> Oracle.Del (Tuple.key_of target t)) (Oracle.visible oracle ~vn:(vn - 1))
    @ List.map (fun t -> Oracle.Ins t) tuples)

(* Each session of [wh] and [twin] (begun at one VN) against the oracle. *)
let check_sessions ctx oracle (wh, s) (twin, s') =
  let vn = Twovnl.Session.vn s in
  check Alcotest.int (ctx ^ ": sessions at one VN") vn (Twovnl.Session.vn s');
  let expected = Oracle.visible oracle ~vn in
  List.iter
    (fun (side, got) ->
      if not (List.equal Tuple.equal expected got) then
        Alcotest.failf "%s: %s session at vn %d differs from the oracle" ctx side vn)
    [ ("page-run", read wh s); ("hand-driven", read twin s') ]

let run_history ~n ~workers seed =
  let rng = Xorshift.create seed in
  let wh = Warehouse.create ~n ~pool_capacity:8 [ view ] in
  let twin = Warehouse.create ~n ~pool_capacity:8 [ view ] in
  let oracle = Oracle.create (View_def.target_schema view) in
  for step = 1 to 6 do
    let ctx = Printf.sprintf "n=%d workers=%d seed=%d step=%d" n workers seed step in
    let batch =
      if step = 1 then List.init 30 (fun _ -> Delta.Insert (domain_sale rng)) else gen_batch rng wh
    in
    (* Sessions pinned before the refresh read its pre-update versions. *)
    let pinned = Warehouse.begin_session wh and pinned' = Warehouse.begin_session twin in
    let got, want = refresh_both ~workers wh twin batch in
    check_outcome ctx got want;
    record_view oracle
      ~vn:(Twovnl.current_vn (Warehouse.vnl wh))
      (List.sort Tuple.compare (Warehouse.expected_view wh name));
    check_sessions (ctx ^ " pinned") oracle (wh, pinned) (twin, pinned');
    Warehouse.end_session wh pinned;
    Warehouse.end_session twin pinned';
    let s = Warehouse.begin_session wh and s' = Warehouse.begin_session twin in
    check_sessions (ctx ^ " fresh") oracle (wh, s) (twin, s');
    Warehouse.end_session wh s;
    Warehouse.end_session twin s';
    check_bytes_identical ctx wh twin
  done;
  let s = Warehouse.begin_session wh in
  Alcotest.(check bool)
    "incremental = recompute" true
    (read wh s = List.sort Tuple.compare (Warehouse.expected_view wh name));
  Warehouse.end_session wh s

let qcheck_page_runs_equal_hand_driven =
  QCheck.Test.make ~name:"page-run refresh byte-identical to Summary.apply_batch" ~count:100
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 1_000_000) (int_range 2 3) (int_range 1 3))
       ~print:(fun (s, n, w) -> Printf.sprintf "seed=%d n=%d workers=%d" s n w))
    (fun (seed, n, workers) ->
      run_history ~n ~workers seed;
      true)

(* ---------- a secondary index on the aggregate, across an evolution ---------- *)

(* Every record's entry, and only those: each stored [total_sales] value
   looks up exactly the records holding it. *)
let check_index ctx wh =
  let table = Twovnl.table (Twovnl.handle_exn (Warehouse.vnl wh) name) in
  let pos = Schema.index_of (Table.schema table) "total_sales" in
  let records = Table.to_list table in
  let values = List.sort_uniq Value.compare (List.map (fun (_, t) -> Tuple.get t pos) records) in
  let sort = List.sort compare in
  let total =
    List.fold_left
      (fun acc v ->
        let want =
          List.filter_map
            (fun (rid, t) -> if Value.equal (Tuple.get t pos) v then Some rid else None)
            records
        in
        let got = Table.index_lookup table ~name:"by_sales" [ v ] in
        if sort got <> sort want then
          Alcotest.failf "%s: by_sales lookup of %s disagrees with a scan" ctx (Value.to_string v);
        acc + List.length got)
      0 values
  in
  check Alcotest.int (ctx ^ ": every record indexed once") (List.length records) total

let test_index_across_evolution ~workers () =
  let rng = Xorshift.create (17 + workers) in
  let wh = Warehouse.create ~n:3 ~pool_capacity:8 [ view ] in
  let twin = Warehouse.create ~n:3 ~pool_capacity:8 [ view ] in
  let evolve e = List.iter (fun w -> Warehouse.evolve w [ e ]) [ wh; twin ] in
  evolve (Warehouse.Add_index { view = name; index = "by_sales"; attrs = [ "total_sales" ] });
  let step ctx batch =
    let got, want = refresh_both ~workers wh twin batch in
    check_outcome ctx got want;
    check_index ctx wh;
    check_index (ctx ^ " (twin)") twin;
    let s = Warehouse.begin_session wh and s' = Warehouse.begin_session twin in
    if read wh s <> read twin s' then Alcotest.failf "%s: readers differ" ctx;
    Warehouse.end_session wh s;
    Warehouse.end_session twin s'
  in
  step "load" (List.init 40 (fun _ -> Delta.Insert (domain_sale rng)));
  for i = 1 to 3 do
    step (Printf.sprintf "before evolution %d" i) (gen_batch rng wh)
  done;
  evolve
    (Warehouse.Add_column
       { view = name; attr = Schema.attr ~updatable:true "returns" Dtype.Int; default = Value.Int 0 });
  for i = 1 to 4 do
    step (Printf.sprintf "after evolution %d" i) (gen_batch rng wh)
  done

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_netting_hash;
    QCheck_alcotest.to_alcotest qcheck_page_runs_equal_hand_driven;
    Alcotest.test_case "by_sales index and outcomes across add_column, 1 worker" `Quick
      (test_index_across_evolution ~workers:1);
    Alcotest.test_case "by_sales index and outcomes across add_column, 2 workers" `Quick
      (test_index_across_evolution ~workers:2);
  ]
