(* Differential tests for the batched maintenance path: Batch.apply must be
   a pure performance change.  Three warehouses receive the same logical
   operation stream — one op at a time on the first, as one Batch.apply per
   transaction on the second, as two Batch.apply statements per transaction
   (split at a seeded point) on the third — and after every commit the
   physical page bytes and the reader-visible state of every live session
   must agree.  All three run the same Tables 2-4 transitions, so each live
   session is also checked against the full-history oracle (Oracle): the
   third warehouse's second statement folds over records its first one
   stamped (row 2 of the tables), and the oracle is the witness for those
   rows that is not the code under test. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Schema = Vnl_relation.Schema
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Disk = Vnl_storage.Disk
module Buffer_pool = Vnl_storage.Buffer_pool
module Heap_file = Vnl_storage.Heap_file
module Twovnl = Vnl_core.Twovnl
module Batch = Vnl_core.Batch
module Maintenance = Vnl_core.Maintenance
module Key = Vnl_index.Hash_index.Key

let check = Alcotest.check

(* Self-contained xorshift so the streams are stable across stdlib
   versions. *)
let make_rng seed =
  let state = ref (seed * 2654435761 land 0x3FFFFFFF) in
  if !state = 0 then state := 0x9E3779B9;
  fun bound ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) in
    let x = x land 0x3FFFFFFF in
    state := x;
    x mod bound

let cities = [| "San Jose"; "Berkeley"; "Novato"; "Fresno"; "Oakland"; "Davis" |]

let product_lines = [| "golf equip"; "racquetball"; "rollerblades"; "tennis" |]

let nkeys = Array.length cities * Array.length product_lines * 4

let key_of_id id =
  let c = id mod Array.length cities in
  let p = id / Array.length cities mod Array.length product_lines in
  let d = id / (Array.length cities * Array.length product_lines) in
  [
    Value.Str cities.(c);
    Value.Str "CA";
    Value.Str product_lines.(p);
    Value.date_of_mdy 10 (13 + d) 96;
  ]

let sales_index = 4 (* total_sales in the base schema *)

(* Every warehouse carries a secondary index on the updatable attribute,
   so each path's index upkeep (page runs, insert runs, deletes) is
   checked too. *)
let mk_wh n =
  let db = Database.create ~page_size:512 ~pool_capacity:8 () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~n ~name:"T" Fixtures.daily_sales);
  Table.create_index (Twovnl.table (Twovnl.handle_exn wh "T")) ~name:"by_sales" [ "total_sales" ];
  (db, wh)

(* Every record is found under its indexed value, and the entries under
   every value ever written add up to the records: no stale entry. *)
let check_sales_index ctx wh ~written =
  let t = Twovnl.table (Twovnl.handle_exn wh "T") in
  let pos = Schema.index_of (Table.schema t) "total_sales" in
  let records = ref 0 in
  Table.scan t (fun rid tuple ->
      incr records;
      if
        not
          (List.exists (Heap_file.rid_equal rid)
             (Table.index_lookup t ~name:"by_sales" [ Tuple.get tuple pos ]))
      then Alcotest.failf "%s: a record is missing from by_sales" ctx);
  let entries =
    Hashtbl.fold
      (fun v () acc -> acc + List.length (Table.index_lookup t ~name:"by_sales" [ v ]))
      written 0
  in
  check Alcotest.int (ctx ^ ": by_sales entries = records") !records entries

type gop = G_insert of int * int | G_update of int * int | G_delete of int

(* Generate one transaction's operation stream against the logical model.
   [`Dead] keys are logically deleted records still physically present (no
   GC runs here), so inserting over one exercises Table 2 row 1 and a
   subsequent delete the Table 4 row 2 correction.  The single documented
   divergence — delete of a key fresh-inserted in the same transaction,
   which the batch nets to nothing while per-op application transiently
   occupies a slot — is kept out of the stream. *)
let gen_batch rng model size =
  let sim = Hashtbl.copy model in
  let fresh = Hashtbl.create 8 in
  let state k = Option.value (Hashtbl.find_opt sim k) ~default:`Absent in
  let ops = ref [] in
  let emitted = ref 0 in
  while !emitted < size do
    let k = rng nkeys in
    let v = 100 + rng 10_000 in
    (match state k with
    | `Absent ->
      Hashtbl.replace fresh k ();
      Hashtbl.replace sim k `Live;
      ops := G_insert (k, v) :: !ops;
      incr emitted
    | `Dead ->
      Hashtbl.replace sim k `Live;
      ops := G_insert (k, v) :: !ops;
      incr emitted
    | `Live ->
      if rng 3 = 0 && not (Hashtbl.mem fresh k) then begin
        Hashtbl.replace sim k `Dead;
        ops := G_delete k :: !ops;
        incr emitted
      end
      else begin
        ops := G_update (k, v) :: !ops;
        incr emitted
      end)
  done;
  (List.rev !ops, sim)

let apply_per_op m ops =
  List.iter
    (fun op ->
      match op with
      | G_insert (k, v) ->
        Twovnl.Txn.insert m ~table:"T" (key_of_id k @ [ Value.Int v ])
      | G_update (k, v) ->
        if
          not
            (Twovnl.Txn.update_by_key m ~table:"T" ~key:(key_of_id k)
               ~set:[ ("total_sales", Value.Int v) ])
        then Alcotest.fail "per-op update missed a live key"
      | G_delete k ->
        if not (Twovnl.Txn.delete_by_key m ~table:"T" ~key:(key_of_id k)) then
          Alcotest.fail "per-op delete missed a live key")
    ops

let to_batch_ops ops =
  List.map
    (fun op ->
      match op with
      | G_insert (k, v) ->
        Batch.Insert (Tuple.make Fixtures.daily_sales (key_of_id k @ [ Value.Int v ]))
      | G_update (k, v) -> Batch.Update (key_of_id k, [ (sales_index, Value.Int v) ])
      | G_delete k -> Batch.Delete (key_of_id k))
    ops

let flush db = Buffer_pool.flush_all (Database.pool db)

let check_bytes_identical ctx db_a db_b =
  flush db_a;
  flush db_b;
  let da = Database.disk db_a and db' = Database.disk db_b in
  check Alcotest.int (ctx ^ ": page counts") (Disk.page_count da) (Disk.page_count db');
  for pid = 0 to Disk.page_count da - 1 do
    if not (Bytes.equal (Disk.read da pid) (Disk.read db' pid)) then
      Alcotest.fail (Printf.sprintf "%s: page %d bytes differ" ctx pid)
  done

let sorted_rows rows = List.sort Tuple.compare rows

let oracle_op = function
  | Batch.Insert t -> Oracle.Ins t
  | Batch.Update (k, a) -> Oracle.Upd (k, a)
  | Batch.Delete k -> Oracle.Del k

(* Each session tuple holds one session per warehouse, all begun at the
   same VN.  Validity must agree; a valid session must read the oracle's
   state at its VN on every warehouse.  Returns the still-valid ones. *)
let check_readers_agree ctx whs oracle sessions =
  List.filter
    (fun ss ->
      let valid = List.map2 Twovnl.Session.is_valid whs ss in
      List.iter (check Alcotest.bool (ctx ^ ": session validity agrees") (List.hd valid)) valid;
      if List.hd valid then begin
        let vn = Twovnl.Session.vn (List.hd ss) in
        let expected = Oracle.visible oracle ~vn in
        List.iteri
          (fun i (wh, s) ->
            check Fixtures.base_testable
              (Printf.sprintf "%s: warehouse %d, session at vn %d = oracle" ctx i vn)
              expected
              (sorted_rows (Twovnl.Session.read_table wh s "T")))
          (List.combine whs ss)
      end;
      List.hd valid)
    sessions

let check_keyed_lookups_agree ctx wh_a wh_b =
  let ta = Twovnl.table (Twovnl.handle_exn wh_a "T")
  and tb = Twovnl.table (Twovnl.handle_exn wh_b "T") in
  for k = 0 to nkeys - 1 do
    let key = key_of_id k in
    match (Table.find_by_key ta key, Table.find_by_key tb key) with
    | None, None -> ()
    | Some (ra, va), Some (rb, vb) ->
      if not (Heap_file.rid_equal ra rb) then
        Alcotest.fail (Printf.sprintf "%s: rid differs for key %d" ctx k);
      if not (Tuple.equal va vb) then
        Alcotest.fail (Printf.sprintf "%s: tuple differs for key %d" ctx k)
    | Some _, None | None, Some _ ->
      Alcotest.fail (Printf.sprintf "%s: key %d present on one side only" ctx k)
  done

let run_differential ~n ~seed ~txns ~batch_size () =
  let rng = make_rng seed and split = make_rng (seed + 1) in
  let (db_a, wh_a), (db_b, wh_b), (db_c, wh_c) = (mk_wh n, mk_wh n, mk_wh n) in
  let whs = [ wh_a; wh_b; wh_c ] in
  let oracle = Oracle.create Fixtures.daily_sales in
  let model = Hashtbl.create nkeys and written = Hashtbl.create 64 in
  let begin_all () = List.map Twovnl.Session.begin_ whs in
  let sessions = ref [ begin_all () ] in
  for txn = 1 to txns do
    let ops, sim = gen_batch rng model batch_size in
    let batch = to_batch_ops ops in
    let ma = Twovnl.Txn.begin_ wh_a in
    apply_per_op ma ops;
    Oracle.apply_txn oracle ~vn:(Twovnl.Txn.vn ma) (List.map oracle_op batch);
    Twovnl.Txn.commit ma;
    let mb = Twovnl.Txn.begin_ wh_b in
    let outcome = Twovnl.Txn.apply_batch mb ~table:"T" batch in
    Twovnl.Txn.commit mb;
    check Alcotest.int "batch saw every logical op" (List.length ops)
      outcome.Batch.logical_ops;
    let mc = Twovnl.Txn.begin_ wh_c in
    let cut = split (List.length batch + 1) in
    let first = Twovnl.Txn.apply_batch mc ~table:"T" (List.filteri (fun i _ -> i < cut) batch)
    and second = Twovnl.Txn.apply_batch mc ~table:"T" (List.filteri (fun i _ -> i >= cut) batch) in
    Twovnl.Txn.commit mc;
    check Alcotest.int "two statements saw every logical op" (List.length ops)
      (first.Batch.logical_ops + second.Batch.logical_ops);
    Hashtbl.reset model;
    Hashtbl.iter (Hashtbl.replace model) sim;
    (* Pre-update cells are not indexed, so only values written to the
       current attribute can hold entries. *)
    List.iter
      (function
        | G_insert (_, v) | G_update (_, v) -> Hashtbl.replace written (Value.Int v) ()
        | G_delete _ -> ())
      ops;
    let ctx = Printf.sprintf "n=%d seed=%d txn=%d" n seed txn in
    check_bytes_identical ctx db_a db_b;
    check_bytes_identical (ctx ^ " split at " ^ string_of_int cut) db_a db_c;
    sessions := check_readers_agree ctx whs oracle !sessions;
    check_keyed_lookups_agree ctx wh_a wh_b;
    check_keyed_lookups_agree ctx wh_a wh_c;
    List.iter (check_sales_index ctx ~written) whs;
    sessions := begin_all () :: !sessions
  done

let test_differential_2vnl () =
  List.iter (fun seed -> run_differential ~n:2 ~seed ~txns:6 ~batch_size:40 ()) [ 1; 7; 42 ]

let test_differential_nvnl () =
  (* n = 4: at least three version slots, so push_back/shift_forward chains
     are exercised across several overlapping transactions. *)
  List.iter (fun seed -> run_differential ~n:4 ~seed ~txns:8 ~batch_size:30 ()) [ 3; 11 ]

(* Directed corner: insert over an older transaction's logical delete, then
   delete again in the same batch — the Table 4 row 2 correction must
   restore the deleted record, not physically remove it, exactly as the
   per-op path does. *)
let test_insert_over_delete_then_delete () =
  List.iter
    (fun n ->
      let db_a, wh_a = mk_wh n and db_b, wh_b = mk_wh n in
      let key = key_of_id 0 in
      let seed_ops = [ G_insert (0, 500); G_insert (1, 700) ] in
      let del_ops = [ G_delete 0 ] in
      let corner = [ G_insert (0, 900); G_delete 0 ] in
      List.iter
        (fun (wh, apply) ->
          List.iter
            (fun ops ->
              let m = Twovnl.Txn.begin_ wh in
              apply m ops;
              Twovnl.Txn.commit m)
            [ seed_ops; del_ops; corner ])
        [
          (wh_a, apply_per_op);
          (wh_b, fun m ops -> ignore (Twovnl.Txn.apply_batch m ~table:"T" (to_batch_ops ops)));
        ];
      check_bytes_identical (Printf.sprintf "corner n=%d" n) db_a db_b;
      let s = Twovnl.Session.begin_ wh_b in
      let live = Twovnl.Session.read_table wh_b s "T" in
      check Alcotest.int "key 0 stays logically deleted" 1 (List.length live);
      let tb = Twovnl.table (Twovnl.handle_exn wh_b "T") in
      Alcotest.(check bool) "record physically present (history kept)" true
        (Table.find_by_key tb key <> None))
    [ 2; 4 ]

let test_net_effect_folding () =
  let _db, wh = mk_wh 2 in
  let m = Twovnl.Txn.begin_ wh in
  let outcome =
    Twovnl.Txn.apply_batch m ~table:"T"
      (to_batch_ops [ G_insert (0, 100); G_update (0, 200); G_update (0, 300) ])
  in
  check Alcotest.int "one distinct key" 1 outcome.Batch.distinct_keys;
  check Alcotest.int "two ops folded away" 2 outcome.Batch.folded_ops;
  check Alcotest.int "single physical insert" 1 outcome.Batch.physical_inserts;
  check Alcotest.int "no physical updates" 0 outcome.Batch.physical_updates;
  Twovnl.Txn.commit m;
  let s = Twovnl.Session.begin_ wh in
  match sorted_rows (Twovnl.Session.read_table wh s "T") with
  | [ t ] -> check Alcotest.string "folded value" "300" (Value.to_string (Tuple.get t 4))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length l))

(* Every page's bytes, flushed to disk. *)
let disk_pages db =
  flush db;
  let d = Database.disk db in
  List.init (Disk.page_count d) (Disk.read d)

let valid_update = G_update (0, 4242)

(* Rejected statements, each placed after a valid update to key 0, stored
   on an earlier page than any key the rejected op names: a batch that
   wrote before validating would leave key 0 rewritten.  Keys 0-23 are
   stored, 20 live and 21 logically deleted; 50 is absent.  [first] is an
   earlier statement of the same transaction. *)
let rejection_cases =
  let key k = key_of_id k and row k v = key_of_id k @ [ v ] in
  [
    ("update of an absent key", [], [ G_update (50, 1) ], []);
    ("delete of an absent key", [], [ G_delete 50 ], []);
    ("update of a logically deleted key", [], [ G_update (21, 1) ], []);
    ("delete of a logically deleted key", [], [ G_delete 21 ], []);
    ("insert over a live key", [], [ G_insert (20, 1) ], []);
    ( "insert over this transaction's insert (row 2)",
      [ G_insert (50, 5) ],
      [ G_insert (50, 6) ],
      [] );
    ( "assignment to a key attribute",
      [],
      [],
      [ Batch.Update (key 20, [ (0, Value.Str "Nowhere") ]) ] );
    ("assignment to no attribute", [], [], [ Batch.Update (key 20, [ (9, Value.Int 1) ]) ]);
    ("wrongly typed update", [], [], [ Batch.Update (key 20, [ (sales_index, Value.Str "x") ]) ]);
    ( "wrongly typed insert",
      [],
      [],
      [ Batch.Insert (Tuple.unsafe_of_array (Array.of_list (row 50 (Value.Str "x")))) ] );
    ( "insert of the wrong arity",
      [],
      [],
      [ Batch.Insert (Tuple.unsafe_of_array (Array.of_list (key 50))) ] );
  ]

let test_rejected_batch_leaves_table_untouched () =
  List.iter
    (fun n ->
      List.iter
        (fun (name, first, ops, raw) ->
          let ctx = Printf.sprintf "n=%d %s" n name in
          let db, wh = mk_wh n in
          List.iter
            (fun ops ->
              let m = Twovnl.Txn.begin_ wh in
              apply_per_op m ops;
              Twovnl.Txn.commit m)
            [ List.init 24 (fun k -> G_insert (k, 100 + k)); [ G_delete 21 ] ];
          let table = Twovnl.table (Twovnl.handle_exn wh "T") in
          let page_of k =
            Option.map (fun (r : Heap_file.rid) -> r.Heap_file.page)
              (Table.probe table ~hash:(Key.hash (key_of_id k)) (key_of_id k))
          in
          let committed = disk_pages db in
          let s = Twovnl.Session.begin_ wh in
          let visible = sorted_rows (Twovnl.Session.read_table wh s "T") in
          let m = Twovnl.Txn.begin_ wh in
          apply_per_op m first;
          List.iter
            (fun k ->
              match (page_of 0, page_of k) with
              | Some p0, Some pk when p0 >= pk ->
                Alcotest.failf "%s: key %d is not stored after key 0's page" ctx k
              | Some _, _ -> ()
              | None, _ -> Alcotest.failf "%s: key 0 is not stored" ctx)
            [ 20; 21; 50 ];
          let before = disk_pages db in
          Alcotest.(check bool) (ctx ^ ": rejected") true
            (try
               ignore
                 (Twovnl.Txn.apply_batch m ~table:"T" (to_batch_ops (valid_update :: ops) @ raw));
               false
             with Invalid_argument _ | Vnl_core.Op.Impossible _ -> true);
          Alcotest.(check bool) (ctx ^ ": no write reached the table") true
            (List.equal Bytes.equal before (disk_pages db));
          ignore (Twovnl.Txn.abort m);
          (* An earlier statement's fresh insert leaves its freed slot's
             stale bytes behind, so only a transaction with nothing else
             to revert returns to the committed bytes. *)
          if first = [] then
            Alcotest.(check bool) (ctx ^ ": pages byte-identical after the abort") true
              (List.equal Bytes.equal committed (disk_pages db));
          check Fixtures.base_testable (ctx ^ ": the abort restores the committed state") visible
            (sorted_rows (Twovnl.Session.read_table wh s "T")))
        rejection_cases)
    [ 2; 4 ]

let test_key_assignment_rejected () =
  let _db, wh = mk_wh 2 in
  let m = Twovnl.Txn.begin_ wh in
  apply_per_op m [ G_insert (0, 100) ];
  Alcotest.(check bool) "assignment to key attribute rejected" true
    (try
       ignore
         (Twovnl.Txn.apply_batch m ~table:"T"
            [ Batch.Update (key_of_id 0, [ (0, Value.Str "Nowhere") ]) ]);
       false
     with Invalid_argument _ -> true);
  Twovnl.Txn.commit m

(* A table without a unique key takes insert-only batches down the same
   insert run: every insert is its own record, in order, and an update is
   refused before any of them lands. *)
let test_keyless_insert_only () =
  let log =
    Schema.make
      [ Schema.attr "city" (Vnl_relation.Dtype.Str 20); Schema.attr "n" Vnl_relation.Dtype.Int ]
  in
  let db = Database.create ~page_size:512 ~pool_capacity:8 () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:"L" log);
  let row c n = Tuple.make log [ Value.Str c; Value.Int n ] in
  let inserts = List.init 12 (fun i -> Batch.Insert (row "Davis" (i mod 3))) in
  let m = Twovnl.Txn.begin_ wh in
  let outcome = Twovnl.Txn.apply_batch m ~table:"L" inserts in
  check Alcotest.int "every insert its own key" 12 outcome.Batch.distinct_keys;
  check Alcotest.int "every insert a physical insert" 12 outcome.Batch.physical_inserts;
  Twovnl.Txn.commit m;
  let committed = disk_pages db in
  let m = Twovnl.Txn.begin_ wh in
  Alcotest.(check bool) "an update on a keyless table is refused" true
    (try
       ignore
         (Twovnl.Txn.apply_batch m ~table:"L"
            [
              Batch.Insert (row "Fresno" 1);
              Batch.Update ([ Value.Str "Davis" ], [ (1, Value.Int 9) ]);
            ]);
       false
     with Invalid_argument _ -> true);
  ignore (Twovnl.Txn.abort m);
  Alcotest.(check bool) "no write reached the table" true
    (List.equal Bytes.equal committed (disk_pages db));
  let s = Twovnl.Session.begin_ wh in
  check Fixtures.base_testable "the inserts, in order"
    (List.init 12 (fun i -> row "Davis" (i mod 3)))
    (Twovnl.Session.read_table wh s "L")

(* The refresh's page runs meet row 1 only: a record the transaction
   already stamped at the run's VN is refused before its change is
   classified, and its bytes stay as the first statement left them. *)
let test_refresh_run_refuses_same_vn () =
  List.iter
    (fun n ->
      let _db, wh = mk_wh n in
      let m0 = Twovnl.Txn.begin_ wh in
      apply_per_op m0 [ G_insert (0, 100) ];
      Twovnl.Txn.commit m0;
      let m = Twovnl.Txn.begin_ wh in
      ignore (Twovnl.Txn.apply_batch m ~table:"T" (to_batch_ops [ G_update (0, 200) ]));
      let h = Twovnl.handle_exn wh "T" and key = key_of_id 0 in
      let table = Twovnl.table h in
      let rid = Table.probe table ~hash:(Key.hash key) key in
      let record () =
        Option.bind rid (fun rid ->
            Heap_file.read_record (Table.heap table) rid (fun img off ->
                Bytes.sub img off (Schema.width (Table.schema table))))
      in
      let before = record () in
      let decided = ref false in
      let decide _ =
        decided := true;
        [ Batch.Update (key, [ (sales_index, Value.Int 300) ]) ]
      in
      let runs = Batch.group [ { Batch.key; rid; decide } ] in
      Alcotest.(check bool) "a record stamped at the run's VN is refused" true
        (try
           ignore
             (Batch.apply_in_place ~row2:false ~stats:(Maintenance.fresh_stats ()) ~pad:Fun.id
                ~on_over_delete:ignore (Twovnl.ext h) table ~vn:(Twovnl.Txn.vn m) runs);
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool) "decide never called" false !decided;
      Alcotest.(check bool) "record bytes unchanged" true
        (Option.is_some before && Option.equal Bytes.equal before (record ()));
      ignore (Twovnl.Txn.abort m))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "differential vs per-op (2VNL)" `Quick test_differential_2vnl;
    Alcotest.test_case "differential vs per-op (4VNL)" `Quick test_differential_nvnl;
    Alcotest.test_case "insert-over-delete then delete corner" `Quick
      test_insert_over_delete_then_delete;
    Alcotest.test_case "net-effect folding outcome" `Quick test_net_effect_folding;
    Alcotest.test_case "rejected batch leaves table untouched" `Quick
      test_rejected_batch_leaves_table_untouched;
    Alcotest.test_case "key assignment rejected" `Quick test_key_assignment_rejected;
    Alcotest.test_case "keyless table: insert-only batches" `Quick test_keyless_insert_only;
    Alcotest.test_case "refresh page run refuses a record stamped at its VN" `Quick
      test_refresh_run_refuses_same_vn;
  ]
