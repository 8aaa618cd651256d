(* What a commit makes durable, and what it may skip.

   [Database.save] writes the catalog only when it changed since the last
   save (a fingerprint of the catalog the header names), so a refresh that
   grows no heap commits with the Version page and its dirty frames alone.
   The law below drives random sequences of heap-growing and non-growing
   refreshes, evolutions, aborted evolutions, collections and reopens, and
   checks after every step that the catalog on disk is the live one and
   that a commit wrote catalog pages exactly when the on-disk text changed.

   The crash sweep after it pins why the maintenance flag still flushes
   every dirty frame rather than just the Version page: a collection's
   physical deletes dirty pages outside maintenance, and a refresh that
   re-inserts a collected key on another page must not publish while the
   collected record is still volatile — a crash would bring the dead record
   back beside the new one, two records under one unique key. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Schema = Vnl_relation.Schema
module Dtype = Vnl_relation.Dtype
module Disk = Vnl_storage.Disk
module Heap_file = Vnl_storage.Heap_file
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Catalog = Vnl_query.Catalog
module Twovnl = Vnl_core.Twovnl
module Batch = Vnl_core.Batch
module Pipeline = Vnl_core.Pipeline
module Recovery = Vnl_core.Recovery
module Obs = Vnl_obs.Obs
module Xorshift = Vnl_util.Xorshift

let check = Alcotest.check

let table_name = "DailySales"

let tables = [ (table_name, Fixtures.daily_sales) ]

let key_of i =
  [
    Value.Str (Printf.sprintf "city-%d" (i mod 7));
    Value.Str "CA";
    Value.Str (Printf.sprintf "line-%d" (i / 7));
    Value.date_of_mdy 10 13 96;
  ]

let row_of i sales = Tuple.make Fixtures.daily_sales (key_of i @ [ Value.Int sales ])

let sales_table vnl = Twovnl.table (Twovnl.handle_exn vnl table_name)

(* [Warehouse.refresh]'s path: one pipelined round of one stripe. *)
let refresh vnl ops =
  let changes = Fixtures.changes_of_ops vnl table_name ops in
  ignore (Pipeline.run (Pipeline.plan vnl ~workers:1 [ (table_name, changes) ]))

let visible vnl =
  let s = Twovnl.Session.begin_ vnl in
  let rows = Twovnl.Session.read_table vnl s table_name in
  Twovnl.Session.end_ vnl s;
  List.sort Tuple.compare rows

(* --- the catalog durability law ---------------------------------------- *)

type step =
  | Grow  (** a refresh inserting more rows than the heap has free slots *)
  | Refresh  (** updates and a delete: no heap grows *)
  | Add_column
  | Add_view
  | Add_index
  | Failed_evolve  (** an add_column whose transaction then fails and aborts *)
  | Collect
  | Reopen

let step_name = function
  | Grow -> "grow"
  | Refresh -> "refresh"
  | Add_column -> "add_column"
  | Add_view -> "add_view"
  | Add_index -> "add_index"
  | Failed_evolve -> "failed_evolve"
  | Collect -> "collect"
  | Reopen -> "reopen"

let live_catalog db =
  Catalog.serialize ~generations:(Database.generations_meta db)
    (List.map
       (fun tbl ->
         {
           Catalog.table = Table.name tbl;
           schema = Table.schema tbl;
           pages = Heap_file.pages (Table.heap tbl);
           secondary = Table.indexes tbl;
         })
       (Database.tables db))

let disk_catalog db = fst (Fixtures.catalog_of (Database.disk db))

let catalog_writes () = Obs.Counter.get (Obs.Registry.counter "catalog.writes")

let promo_schema =
  Schema.make
    [ Schema.attr ~key:true "city" (Dtype.Str 20); Schema.attr ~updatable:true "amount" Dtype.Int ]

let open_db () =
  let db = Database.create ~pool_capacity:8 () in
  let vnl = Twovnl.init db in
  ignore (Twovnl.register_table vnl ~n:3 ~name:table_name Fixtures.daily_sales);
  Twovnl.load_initial vnl table_name (List.init 12 (fun i -> row_of i 1000));
  Database.save db;
  vnl

let durability_law steps =
  let vnl = ref (open_db ()) in
  let live = ref (List.init 12 Fun.id) and next = ref 12 and ddl = ref 0 in
  let evolve f = Recovery.run_maintenance (Twovnl.database !vnl) !vnl f in
  let fresh_name prefix =
    incr ddl;
    Printf.sprintf "%s%d" prefix !ddl
  in
  let run = function
    | Grow ->
      let heap = Table.heap (sales_table !vnl) in
      let free =
        (Heap_file.tuples_per_page heap * Heap_file.page_count heap) - Heap_file.tuple_count heap
      in
      let ids = List.init (free + 1) (fun i -> !next + i) in
      next := !next + free + 1;
      refresh !vnl (List.map (fun i -> Batch.Insert (row_of i i)) ids);
      live := !live @ ids
    | Refresh -> (
      match !live with
      | gone :: a :: b :: rest ->
        refresh !vnl
          [
            Batch.Delete (key_of gone);
            Batch.Update (key_of a, [ (4, Value.Int !next) ]);
            Batch.Update (key_of b, [ (4, Value.Int (!next + 1)) ]);
          ];
        live := a :: b :: rest
      | _ -> ())
    | Add_column ->
      let attr = Schema.attr ~updatable:true (fresh_name "extra") Dtype.Int in
      evolve (fun txn -> Twovnl.Txn.add_column txn ~table:table_name attr ~default:(Value.Int 7))
    | Add_view ->
      let name = fresh_name "Promo" in
      evolve (fun txn ->
          Twovnl.Txn.add_table txn ~name promo_schema;
          Twovnl.Txn.insert txn ~table:name [ Value.Str "Reno"; Value.Int 42 ])
    | Add_index ->
      let index = fresh_name "ix" in
      evolve (fun txn -> Twovnl.Txn.add_index txn ~table:table_name ~index [ "state" ])
    | Failed_evolve -> (
      let attr = Schema.attr ~updatable:true (fresh_name "doomed") Dtype.Int in
      match
        evolve (fun txn ->
            Twovnl.Txn.add_column txn ~table:table_name attr ~default:(Value.Int 0);
            failwith "injected")
      with
      | () -> Alcotest.fail "the failing evolution committed"
      | exception Failure _ -> ())
    | Collect -> ignore (Twovnl.collect_garbage !vnl)
    | Reopen ->
      let before = visible !vnl in
      let vnl', out =
        Recovery.reopen ~pool_capacity:8 ~n:3 (Database.disk (Twovnl.database !vnl)) ~tables
      in
      if out.Recovery.interrupted then Alcotest.fail "a reopen between steps saw maintenance";
      if not (List.equal Tuple.equal before (visible vnl')) then
        Alcotest.fail "reopen changed the committed state";
      vnl := vnl'
  in
  (* Set while a collection's retired generations wait for the next
     commit (or are forgotten by a reopen). *)
  let retired = ref false in
  List.iteri
    (fun i step ->
      let ctx = Printf.sprintf "step %d (%s)" i (step_name step) in
      let before = disk_catalog (Twovnl.database !vnl) in
      let gens = Database.generations_meta (Twovnl.database !vnl) in
      let writes = catalog_writes () in
      run step;
      let db = Twovnl.database !vnl in
      let after = disk_catalog db and wrote = catalog_writes () - writes in
      let changed = not (String.equal before after) in
      (match step with
      | Collect ->
        (* A collection writes nothing to the catalog; the generations it
           retires reach disk with the next commit. *)
        check Alcotest.int (ctx ^ ": catalog writes") 0 wrote;
        check Alcotest.string (ctx ^ ": on-disk catalog") before after;
        if Database.generations_meta db != gens then retired := true;
        if not !retired then
          check Alcotest.string (ctx ^ ": disk = live") (live_catalog db) after
      | Reopen ->
        retired := false;
        check Alcotest.int (ctx ^ ": catalog writes") 0 wrote;
        check Alcotest.string (ctx ^ ": disk = live") (live_catalog db) after
      | Grow | Refresh | Add_column | Add_view | Add_index | Failed_evolve ->
        retired := false;
        check Alcotest.string (ctx ^ ": disk = live") (live_catalog db) after;
        check Alcotest.bool (ctx ^ ": catalog written iff its text changed") changed (wrote > 0));
      match step with
      | Grow | Add_column | Add_view | Add_index ->
        check Alcotest.bool (ctx ^ ": the commit changed the catalog") true changed
      | Refresh | Failed_evolve | Collect | Reopen -> ())
    steps;
  true

let qcheck_durability_law =
  let step =
    QCheck.Gen.oneofl
      [ Grow; Refresh; Refresh; Add_column; Add_view; Add_index; Failed_evolve; Collect; Reopen ]
  in
  QCheck.Test.make ~count:100 ~name:"a commit writes the catalog iff its text changed"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 10) step)
       ~print:(fun steps -> String.concat " " (List.map step_name steps)))
    (fun steps ->
      let was = !Obs.enabled in
      Obs.enabled := true;
      Fun.protect ~finally:(fun () -> Obs.enabled := was) (fun () -> durability_law steps))

(* --- a collected key re-inserted on another page, crashed at every write - *)

let test_gc_then_reinsert_crash () =
  let per_page =
    let db = Database.create () in
    let vnl = Twovnl.init db in
    ignore (Twovnl.register_table vnl ~name:table_name Fixtures.daily_sales);
    Heap_file.tuples_per_page (Table.heap (sales_table vnl))
  in
  (* The first heap page full, the second part-full; [victim] sits on the
     second.  Retiring key 0 too frees a slot on the first page, so the
     re-insert lands there — away from the victim's collected record. *)
  let rows = per_page + 3 in
  let victim = rows - 1 in
  let page_of vnl i =
    match Table.find_by_key (sales_table vnl) (key_of i) with
    | Some (rid, _) -> rid.Heap_file.page
    | None -> Alcotest.failf "key %d absent" i
  in
  let pool_capacity = 16 in
  let base, victim_page =
    let db = Database.create ~pool_capacity () in
    let vnl = Twovnl.init db in
    ignore (Twovnl.register_table vnl ~name:table_name Fixtures.daily_sales);
    Twovnl.load_initial vnl table_name (List.init rows (fun i -> row_of i 1000));
    let victim_page = page_of vnl victim in
    Alcotest.(check bool) "the victim is off the first heap page" true
      (victim_page <> page_of vnl 0);
    refresh vnl [ Batch.Delete (key_of 0); Batch.Delete (key_of victim) ];
    Database.save db;
    (Database.disk db, victim_page)
  in
  (* The collection runs in memory only: its deletes stay in dirty frames
     (the pool is large enough that nothing is evicted) until the refresh's
     flag flushes them. *)
  let setup d =
    let vnl, _ = Recovery.reopen ~pool_capacity d ~tables in
    check Alcotest.int "both retired keys collected" 2 (Twovnl.collect_garbage vnl);
    vnl
  in
  let reinsert vnl = refresh vnl [ Batch.Insert (row_of victim 7) ] in
  let pre, post, writes =
    let d = Disk.clone base in
    let vnl = setup d in
    let pre = visible vnl in
    Disk.reset_stats d;
    reinsert vnl;
    Alcotest.(check bool) "the re-insert landed on another page" true
      (page_of vnl victim <> victim_page);
    (pre, visible vnl, (Disk.stats d).Disk.writes)
  in
  Alcotest.(check bool) "the refresh changed the state" false (List.equal Tuple.equal pre post);
  let records_per_key vnl =
    let tbl = sales_table vnl in
    let seen = Hashtbl.create 64 in
    Table.iter_tuples tbl (fun t ->
        let k = Tuple.key_of (Table.schema tbl) t in
        Hashtbl.replace seen k (1 + Option.value ~default:0 (Hashtbl.find_opt seen k)));
    Hashtbl.fold (fun _ n acc -> max n acc) seen 0
  in
  let rng = Xorshift.create 4242 in
  let n_pre = ref 0 and n_post = ref 0 in
  let crash k prefix =
    let d = Disk.clone base in
    let vnl = setup d in
    Disk.set_faults d { Disk.no_faults with crash_at_write = Some k; torn_prefix = prefix };
    (try
       reinsert vnl;
       Alcotest.failf "crash point %d did not fire" k
     with Disk.Crash _ -> ());
    Disk.clear_faults d;
    match Recovery.reopen ~pool_capacity d ~tables with
    | exception Disk.Corrupt_page _ when prefix > 0 && prefix < Disk.page_size d -> ()
    | vnl2, _ ->
      let state = visible vnl2 in
      if List.equal Tuple.equal state pre then incr n_pre
      else if List.equal Tuple.equal state post then incr n_post
      else Alcotest.failf "crash at write %d (%d bytes): neither pre nor post" k prefix;
      let most = records_per_key vnl2 in
      if most > 1 then
        Alcotest.failf "crash at write %d (%d bytes): %d records under one key" k prefix most
  in
  for k = 1 to writes do
    crash k 0;
    crash k (Disk.page_size base);
    crash k (1 + Xorshift.int rng (Disk.page_size base - 1))
  done;
  Alcotest.(check bool) "some crash recovered to pre" true (!n_pre > 0);
  Alcotest.(check bool) "some crash recovered to post" true (!n_post > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_durability_law;
    Alcotest.test_case "collected key re-inserted elsewhere: crash at every write" `Quick
      test_gc_then_reinsert_crash;
  ]
