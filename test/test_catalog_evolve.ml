(* The versioned-catalog proof battery: online schema evolution under 2VNL.

   The engine promotes the catalog to immutable VN-stamped generations:
   [ALTER TABLE .. ADD COLUMN], [CREATE VIEW], and [CREATE INDEX] ride a
   maintenance transaction, stage a pending generation, and activate it
   atomically with the version publish.  The battery pins down every
   user-visible promise:

   - generation pinning: a session opened before the evolution commit
     resolves names, schemas, and cached plans against its old generation
     for its whole lifetime — it NEVER sees the new column — while a
     session opened after always does (deterministic Sched interleavings,
     checked against the full-history {!Oracle});
   - crash atomicity: the crash-at-every-write-k sweep of test_faults,
     run over the evolution publish ladder — every crash point reopens to
     exactly the pre- or the post-evolution catalog, never a hybrid;
   - widened decode: QCheck differential — decoding a pre-evolution raw
     record through the new generation's schema equals the old-generation
     decode plus defaults, byte-compared after re-encoding;
   - random evolution sequences interleaved with maintenance batches,
     including save/reopen of the multi-generation catalog;
   - plan-cache generations: plans compiled under generation g miss (not
     stale-hit) under g+1 while a still-pinned g-session keeps hitting its
     cached plan (Obs counter regression);
   - free-running readers: add_column + CREATE VIEW committed under >= 4
     concurrent reader domains with zero inconsistent reads and zero
     decode errors;
   - the plan cache's bound: more statement shapes than it holds, from
     one domain and from reader domains racing an evolution, with every
     answer exact and the head generation never over the bound. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Schema = Vnl_relation.Schema
module Dtype = Vnl_relation.Dtype
module Disk = Vnl_storage.Disk
module Heap_file = Vnl_storage.Heap_file
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Twovnl = Vnl_core.Twovnl
module Schema_ext = Vnl_core.Schema_ext
module Recovery = Vnl_core.Recovery
module Batch = Vnl_core.Batch
module Obs = Vnl_obs.Obs
module Sched = Vnl_util.Sched
module Xorshift = Vnl_util.Xorshift
module Domain_pool = Vnl_util.Domain_pool

let check = Alcotest.check

let table_name = "DailySales"

let tables = [ (table_name, Fixtures.daily_sales) ]

let groups =
  [
    ("San Jose", "CA", "golf equip");
    ("San Jose", "CA", "racquetball");
    ("Berkeley", "CA", "racquetball");
    ("Berkeley", "CA", "rollerblades");
    ("Novato", "CA", "rollerblades");
    ("Novato", "CA", "tennis");
    ("Fresno", "CA", "tennis");
    ("Reno", "NV", "golf equip");
    ("Tahoe", "NV", "skiing");
    ("Truckee", "NV", "skiing");
  ]

let key_of (city, state, pl) ~day =
  [ Value.Str city; Value.Str state; Value.Str pl; Value.date_of_mdy 10 day 96 ]

let initial_rows =
  List.concat_map
    (fun g ->
      List.map
        (fun day -> Tuple.make Fixtures.daily_sales (key_of g ~day @ [ Value.Int 1000 ]))
        [ 13; 14 ])
    groups

let fresh ?n () =
  let db = Database.create ~pool_capacity:8 () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ?n ~name:table_name Fixtures.daily_sales);
  Twovnl.load_initial wh table_name initial_rows;
  wh

let discount = Schema.attr ~updatable:true "discount" Dtype.Int

let visible vnl =
  let s = Twovnl.Session.begin_ vnl in
  let rows = Twovnl.Session.read_table vnl s table_name in
  Twovnl.Session.end_ vnl s;
  List.sort Tuple.compare rows

(* Project a (possibly widened) base tuple down to its first [arity]
   cells — the original view of an evolved row. *)
let project arity tuple = List.filteri (fun i _ -> i < arity) (Tuple.values tuple)

let base_arity = Schema.arity Fixtures.daily_sales

let evolve_discount ?(default = Value.Int 7) vnl =
  Recovery.run_maintenance (Twovnl.database vnl) vnl (fun txn ->
      Twovnl.Txn.add_column txn ~table:table_name discount ~default)

(* ---------- generation pinning (the core promise) ---------- *)

let test_generation_pinning () =
  let vnl = fresh () in
  let s_old = Twovnl.Session.begin_ vnl in
  let before = Twovnl.Session.read_table vnl s_old table_name in
  evolve_discount vnl;
  check Alcotest.int "head generation advanced" 1 (Twovnl.catalog_generation vnl);
  check Alcotest.int "old session pinned to gen 0" 0 (Twovnl.Session.generation vnl s_old);
  let s_new = Twovnl.Session.begin_ vnl in
  check Alcotest.int "new session resolves gen 1" 1 (Twovnl.Session.generation vnl s_new);
  (* Old session: same schema view as before the commit, forever. *)
  let after = Twovnl.Session.read_table vnl s_old table_name in
  check Alcotest.bool "old session rows unchanged" true (List.equal Tuple.equal before after);
  List.iter
    (fun t -> check Alcotest.int "old session arity" base_arity (Tuple.arity t))
    after;
  (try
     ignore (Twovnl.Session.query vnl s_old "SELECT discount FROM DailySales");
     Alcotest.fail "old session resolved the new column"
   with
  | Twovnl.Expired _ -> Alcotest.fail "old session expired prematurely"
  | _ -> ());
  (* New session: every existing row carries the default. *)
  let rows = Twovnl.Session.read_table vnl s_new table_name in
  check Alcotest.int "new session sees every row" (List.length initial_rows) (List.length rows);
  List.iter
    (fun t ->
      check Alcotest.int "new session arity" (base_arity + 1) (Tuple.arity t);
      check Alcotest.bool "default filled" true (Value.equal (Tuple.get t base_arity) (Value.Int 7)))
    rows;
  let r = Twovnl.Session.query vnl s_new "SELECT city, discount FROM DailySales" in
  List.iter
    (fun row ->
      match row with
      | [ _; d ] -> check Alcotest.bool "SQL sees the default" true (Value.equal d (Value.Int 7))
      | _ -> Alcotest.fail "row shape")
    r.Vnl_query.Executor.rows;
  (* The old session keeps working on its old statements. *)
  let r_old = Twovnl.Session.query vnl s_old "SELECT COUNT(*) FROM DailySales" in
  (match r_old.Vnl_query.Executor.rows with
  | [ [ Value.Int n ] ] -> check Alcotest.int "old SQL still served" (List.length before) n
  | _ -> Alcotest.fail "count shape");
  Twovnl.Session.end_ vnl s_old;
  Twovnl.Session.end_ vnl s_new

let promo_schema =
  Schema.make
    [
      Schema.attr ~key:true "city" (Dtype.Str 20);
      Schema.attr ~updatable:true "amount" Dtype.Int;
    ]

let test_add_view_and_index () =
  let vnl = fresh () in
  let s_old = Twovnl.Session.begin_ vnl in
  Recovery.run_maintenance (Twovnl.database vnl) vnl (fun txn ->
      Twovnl.Txn.add_table txn ~name:"PromoSales" promo_schema;
      Twovnl.Txn.insert txn ~table:"PromoSales" [ Value.Str "Reno"; Value.Int 42 ];
      Twovnl.Txn.add_index txn ~table:table_name ~index:"by_product" [ "product_line" ]);
  check Alcotest.int "one generation for the whole transaction" 1
    (Twovnl.catalog_generation vnl);
  (* The old session cannot resolve the new view... *)
  (try
     ignore (Twovnl.Session.read_table vnl s_old "PromoSales");
     Alcotest.fail "old session resolved the new view"
   with
  | Twovnl.Expired _ -> Alcotest.fail "old session expired prematurely"
  | Failure _ -> ());
  Twovnl.Session.end_ vnl s_old;
  (* ...while a new session reads its committed content. *)
  let s = Twovnl.Session.begin_ vnl in
  let rows = Twovnl.Session.read_table vnl s "PromoSales" in
  check Alcotest.int "new view populated in its own transaction" 1 (List.length rows);
  Twovnl.Session.end_ vnl s;
  let h = Twovnl.handle_exn vnl table_name in
  check Alcotest.bool "index landed on the live table" true
    (List.mem_assoc "by_product" (Table.indexes (Twovnl.table h)));
  (* Maintenance after the evolution works against the new catalog. *)
  Recovery.run_maintenance (Twovnl.database vnl) vnl (fun txn ->
      check Alcotest.bool "post-evolution update" true
        (Twovnl.Txn.update_by_key txn ~table:"PromoSales" ~key:[ Value.Str "Reno" ]
           ~set:[ ("amount", Value.Int 43) ]))

let test_evolution_abort_unstages () =
  let vnl = fresh () in
  let db = Twovnl.database vnl in
  let h_before = Twovnl.handle_exn vnl table_name in
  let pre = visible vnl in
  let txn = Twovnl.Txn.begin_ vnl in
  Twovnl.Txn.add_column txn ~table:table_name discount ~default:(Value.Int 7);
  Twovnl.Txn.add_table txn ~name:"PromoSales" promo_schema;
  Twovnl.Txn.insert txn ~table:"PromoSales" [ Value.Str "Reno"; Value.Int 42 ];
  Twovnl.Txn.insert txn ~table:table_name
    (key_of ("Reno", "NV", "golf equip") ~day:20 @ [ Value.Int 5 ]);
  ignore (Twovnl.Txn.abort txn);
  check Alcotest.int "no generation activated" 0 (Twovnl.catalog_generation vnl);
  check Alcotest.bool "generation metadata restored" true (Database.generations_meta db = []);
  check Alcotest.bool "logical name rebound to the original table" true
    (Twovnl.table (Twovnl.handle_exn vnl table_name) == Twovnl.table h_before);
  check Alcotest.bool "staged view dropped" true (Database.table db "PromoSales" = None);
  check Alcotest.bool "no frozen alias left behind" true
    (List.for_all (fun tbl -> not (String.contains (Table.name tbl) '@')) (Database.tables db));
  check Alcotest.bool "reader state untouched" true
    (List.equal Tuple.equal pre (visible vnl));
  (* The same evolution commits cleanly afterwards. *)
  evolve_discount vnl;
  check Alcotest.int "evolution after abort" 1 (Twovnl.catalog_generation vnl)

(* ---------- deterministic interleavings vs the oracle ---------- *)

(* Maintenance fiber: DML (vn 2), evolution (vn 3), DML at the original
   arity (vn 4, exercising insert padding).  Reader fibers open sessions
   wherever the schedule drops them and must see exactly the oracle state
   of their VN in the schema of their generation: arity 5 before the
   evolution VN, arity 6 with the default after — never a mixture. *)
let evolve_vn = 3

let batch1 =
  [
    Batch.Update (key_of ("San Jose", "CA", "golf equip") ~day:14, [ (4, Value.Int 2000) ]);
    Batch.Delete (key_of ("Truckee", "NV", "skiing") ~day:13);
  ]

let batch2 =
  [
    Batch.Insert
      (Tuple.make Fixtures.daily_sales
         (key_of ("Fresno", "CA", "tennis") ~day:20 @ [ Value.Int 333 ]));
    Batch.Update (key_of ("Reno", "NV", "golf equip") ~day:14, [ (4, Value.Int 777) ]);
  ]

let oracle_op = function
  | Batch.Insert t -> Oracle.Ins t
  | Batch.Update (k, a) -> Oracle.Upd (k, a)
  | Batch.Delete k -> Oracle.Del k

let scheduled_evolution ~sched_seed =
  let vnl = fresh ~n:4 () in
  let oracle = Oracle.create Fixtures.daily_sales in
  Oracle.apply_txn oracle ~vn:1 (List.map (fun t -> Oracle.Ins t) initial_rows);
  Oracle.apply_txn oracle ~vn:2 (List.map oracle_op batch1);
  Oracle.apply_txn oracle ~vn:4 (List.map oracle_op batch2);
  let db = Twovnl.database vnl in
  let maintainer () =
    Recovery.run_maintenance db vnl (fun txn ->
        ignore (Twovnl.Txn.apply_batch txn ~table:table_name batch1));
    Sched.yield ();
    evolve_discount vnl;
    Sched.yield ();
    Recovery.run_maintenance db vnl (fun txn ->
        ignore (Twovnl.Txn.apply_batch txn ~table:table_name batch2))
  in
  let reader name =
    ( name,
      fun () ->
        for _ = 1 to 4 do
          let s = Twovnl.Session.begin_ vnl in
          (try
             let vn = Twovnl.Session.vn s in
             let gen = Twovnl.Session.generation vnl s in
             check Alcotest.int (name ^ ": generation follows the session VN")
               (if vn >= evolve_vn then 1 else 0)
               gen;
             let rows = Twovnl.Session.read_table vnl s table_name in
             let expected = Oracle.visible oracle ~vn in
             let projected =
               List.map (fun t -> Tuple.make Fixtures.daily_sales (project base_arity t)) rows
             in
             if not (Oracle.equal_views projected expected) then
               Alcotest.failf "%s at vn %d: rows disagree with the oracle" name vn;
             List.iter
               (fun t ->
                 if gen = 0 then
                   check Alcotest.int (name ^ ": old-generation arity") base_arity
                     (Tuple.arity t)
                 else begin
                   check Alcotest.int (name ^ ": new-generation arity") (base_arity + 1)
                     (Tuple.arity t);
                   if not (Value.equal (Tuple.get t base_arity) (Value.Int 7)) then
                     Alcotest.failf "%s at vn %d: added column not defaulted" name vn
                 end)
               rows
           with Twovnl.Expired _ -> ());
          Twovnl.Session.end_ vnl s;
          Sched.yield ()
        done )
  in
  let trace =
    Sched.run ~seed:sched_seed
      [ ("maintainer", maintainer); reader "reader-1"; reader "reader-2"; reader "reader-3" ]
  in
  check Alcotest.int "all three transactions committed" 4 (Twovnl.current_vn vnl);
  let final = visible vnl in
  let expected = Oracle.visible oracle ~vn:4 in
  check Alcotest.bool "final state equals oracle (base projection)" true
    (Oracle.equal_views
       (List.map (fun t -> Tuple.make Fixtures.daily_sales (project base_arity t)) final)
       expected);
  trace

let test_scheduled_interleavings () =
  for sched_seed = 1 to 12 do
    ignore (scheduled_evolution ~sched_seed)
  done

let test_scheduled_deterministic () =
  let t1 = scheduled_evolution ~sched_seed:9 in
  let t2 = scheduled_evolution ~sched_seed:9 in
  check (Alcotest.list Alcotest.string) "same seed, same schedule" t1 t2

(* ---------- crash sweep over the evolution publish ladder ---------- *)

(* Pre-transaction platter image, cleanly saved. *)
let build_base () =
  let db = Database.create ~pool_capacity:4 () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:table_name Fixtures.daily_sales);
  Twovnl.load_initial wh table_name initial_rows;
  Database.save db;
  Database.disk db

let reopen disk = Recovery.reopen ~pool_capacity:4 disk ~tables

(* The evolution transaction under test: column + view + index + DML (the
   insert at the original arity exercises padding through the staged
   catalog). *)
let run_evolution vnl =
  Recovery.run_maintenance (Twovnl.database vnl) vnl (fun txn ->
      Twovnl.Txn.add_column txn ~table:table_name discount ~default:(Value.Int 7);
      Twovnl.Txn.add_table txn ~name:"PromoSales" promo_schema;
      Twovnl.Txn.insert txn ~table:"PromoSales" [ Value.Str "Reno"; Value.Int 42 ];
      Twovnl.Txn.add_index txn ~table:table_name ~index:"by_product" [ "product_line" ];
      Twovnl.Txn.insert txn ~table:table_name
        (key_of ("Reno", "NV", "golf equip") ~day:20 @ [ Value.Int 5 ]))

let same = List.equal Tuple.equal

(* Classify a reopened image as exactly pre- or post-evolution; anything
   else fails the sweep.  The whole catalog must agree with the data:
   generation index, visible rows (arity included), the new view's
   presence, and the secondary index. *)
let classify vnl2 ~pre ~post k =
  let state = visible vnl2 in
  let gen = Twovnl.catalog_generation vnl2 in
  let promo = Twovnl.handle vnl2 "PromoSales" in
  let indexed =
    List.mem_assoc "by_product" (Table.indexes (Twovnl.table (Twovnl.handle_exn vnl2 table_name)))
  in
  if gen = 0 then begin
    if not (same state pre) then
      Alcotest.failf "crash at write %d: gen 0 but data is not the pre state" k;
    if promo <> None then Alcotest.failf "crash at write %d: gen 0 with the new view" k;
    if indexed then Alcotest.failf "crash at write %d: gen 0 with the new index" k;
    `Pre
  end
  else if gen = 1 then begin
    if not (same state post) then
      Alcotest.failf "crash at write %d: gen 1 but data is not the post state" k;
    (match promo with
    | Some h ->
      let s = Twovnl.Session.begin_ vnl2 in
      let rows = Twovnl.Session.read_table vnl2 s "PromoSales" in
      Twovnl.Session.end_ vnl2 s;
      ignore h;
      if List.length rows <> 1 then
        Alcotest.failf "crash at write %d: new view lost its committed row" k
    | None -> Alcotest.failf "crash at write %d: gen 1 without the new view" k);
    if not indexed then Alcotest.failf "crash at write %d: gen 1 without the new index" k;
    `Post
  end
  else Alcotest.failf "crash at write %d: impossible generation %d" k gen

let sweep_evolution ?(tear = true) seed =
  let base = build_base () in
  let pre, post, writes =
    let d = Disk.clone base in
    let vnl, out = reopen d in
    Alcotest.(check bool) "clean image needs no repair" false out.Recovery.interrupted;
    let pre = visible vnl in
    Disk.reset_stats d;
    run_evolution vnl;
    ((pre : Tuple.t list), visible vnl, (Disk.stats d).Disk.writes)
  in
  Alcotest.(check bool) "evolution changed the state" false (same pre post);
  (* The ladder's shape, read off the write sequence: the evolution
     rewrites the catalog, so its content and header writes must appear
     between the flag and the publish. *)
  let ladder =
    Fixtures.check_ladder ~ctx:"evolution" base ~setup:(fun d -> fst (reopen d)) ~run:run_evolution
  in
  Alcotest.(check bool) "the evolution changed the catalog" true ladder.Fixtures.catalog_changed;
  check Alcotest.int "the ladder's writes" ladder.Fixtures.writes writes;
  let n_pre = ref 0 and n_post = ref 0 and torn_detected = ref 0 and torn_ok = ref 0 in
  let rng = Xorshift.create (seed * 7919) in
  let clean_crash k prefix =
    let d = Disk.clone base in
    let vnl, _ = reopen d in
    Disk.set_faults d { Disk.no_faults with crash_at_write = Some k; torn_prefix = prefix };
    (try
       run_evolution vnl;
       Alcotest.failf "crash point %d did not fire" k
     with Disk.Crash _ -> ());
    Disk.clear_faults d;
    let vnl2, _ = reopen d in
    (match classify vnl2 ~pre ~post k with
    | `Pre ->
      incr n_pre;
      (* A pre-state reopen accepts the same evolution and reaches post. *)
      run_evolution vnl2;
      ignore (classify vnl2 ~pre ~post k)
    | `Post -> incr n_post)
  in
  for k = 1 to writes do
    clean_crash k 0;
    clean_crash k (Disk.page_size base);
    if tear then begin
      let d = Disk.clone base in
      let vnl, _ = reopen d in
      let prefix = 1 + Xorshift.int rng (Disk.page_size d - 1) in
      Disk.set_faults d { Disk.no_faults with crash_at_write = Some k; torn_prefix = prefix };
      (try
         run_evolution vnl;
         Alcotest.failf "torn crash point %d did not fire" k
       with Disk.Crash _ -> ());
      Disk.clear_faults d;
      match reopen d with
      | exception Disk.Corrupt_page _ -> incr torn_detected
      | vnl2, _ ->
        ignore (classify vnl2 ~pre ~post k);
        incr torn_ok
    end
  done;
  (writes, !n_pre, !n_post, !torn_detected, !torn_ok)

let test_crash_sweep () =
  let writes, n_pre, n_post, torn_detected, _ = sweep_evolution 42 in
  check Alcotest.int "every crash point accounted for" (2 * writes) (n_pre + n_post);
  Alcotest.(check bool) "early crash points reopen pre-evolution" true (n_pre > 0);
  Alcotest.(check bool) "the final crash point reopens post-evolution" true (n_post > 0);
  Alcotest.(check bool) "some torn write was detected by checksum" true (torn_detected > 0)

(* ---------- QCheck: widened decode differential ---------- *)

let dtype_pool = [| Dtype.Int; Dtype.Float; Dtype.Bool; Dtype.Date; Dtype.Str 8 |]

let random_value rng = function
  | Dtype.Int -> Value.Int (Xorshift.int rng 1_000_000 - 500_000)
  | Dtype.Float -> Value.Float (float_of_int (Xorshift.int rng 10_000) /. 7.0)
  | Dtype.Bool -> Value.Bool (Xorshift.bool rng)
  | Dtype.Date -> Value.Date (19960101 + Xorshift.int rng 10000)
  | Dtype.Str n ->
    Value.Str (String.init (1 + Xorshift.int rng (n - 1)) (fun _ -> Char.chr (97 + Xorshift.int rng 26)))

(* Random base schema (unique int key + 1..4 payload columns, some
   updatable), random extended rows with in-use version slots, one added
   column with a random default: decoding every stored raw record through
   the new generation's layout must equal widening the old-generation
   decode — byte-compared after re-encoding under the new schema. *)
let widen_differential seed =
  let rng = Xorshift.create seed in
  let payload =
    List.init (1 + Xorshift.int rng 4) (fun i ->
        let dt = dtype_pool.(Xorshift.int rng (Array.length dtype_pool)) in
        Schema.attr ~updatable:(Xorshift.bool rng) (Printf.sprintf "c%d" i) dt)
  in
  let base = Schema.make (Schema.attr ~key:true "k" Dtype.Int :: payload) in
  let from_ = Schema_ext.extend ~n:2 base in
  let added_dt = dtype_pool.(Xorshift.int rng (Array.length dtype_pool)) in
  let added = Schema.attr ~updatable:(Xorshift.bool rng) "extra" added_dt in
  let default = random_value rng added_dt in
  let to_ = Schema_ext.extend ~n:2 (Schema.extend_with base added) in
  let w = Schema_ext.widening ~from_ ~to_ ~defaults:[ ("extra", default) ] in
  let db = Database.create () in
  let table = Database.create_table db "t" (Schema_ext.extended from_) in
  for i = 1 to 5 + Xorshift.int rng 15 do
    let row =
      Tuple.make base
        (Value.Int i :: List.map (fun a -> random_value rng a.Schema.dtype) payload)
    in
    (* Half fresh inserts, half with a populated pre-update slot. *)
    let ext_tuple =
      if Xorshift.bool rng then Schema_ext.fresh_insert from_ ~vn:(1 + Xorshift.int rng 5) row
      else
        Tuple.make (Schema_ext.extended from_)
          ([ Value.Int (2 + Xorshift.int rng 5); Vnl_core.Op.to_value Vnl_core.Op.Update ]
          @ Tuple.values row
          @ List.map
              (fun j -> random_value rng (Schema.attribute base j).Schema.dtype)
              (Schema_ext.updatable_base_indices from_))
    in
    ignore (Table.insert ~check:false table ext_tuple)
  done;
  let heap = Table.heap table in
  let decoded = ref [] in
  Heap_file.iter_tuples heap (fun t -> decoded := t :: !decoded);
  let raw = ref [] in
  Heap_file.iter_records heap (fun buf off -> raw := Schema_ext.decode_widened w buf off :: !raw);
  let olds = List.rev !decoded and news = List.rev !raw in
  List.length olds = List.length news
  && List.for_all2
       (fun old_t raw_t ->
         let mem_t = Schema_ext.widen w old_t in
         Bytes.equal
           (Tuple.encode (Schema_ext.extended to_) raw_t)
           (Tuple.encode (Schema_ext.extended to_) mem_t))
       olds news

let qcheck_widen_decode =
  QCheck.Test.make ~count:60
    ~name:"widened raw decode = widen of old decode (byte-compared)"
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    widen_differential

(* ---------- QCheck: random evolution sequences ---------- *)

(* Random interleaving of maintenance batches and evolutions against one
   warehouse: after every transaction a fresh session's view must equal
   the oracle at its VN (base projection) with the accumulated defaults
   appended; a session pinned across each evolution must keep the old
   arity.  Finishes with save + reopen: the multi-generation catalog must
   rebuild to the same state. *)
let evolution_sequence seed =
  let rng = Xorshift.create seed in
  let db = Database.create ~pool_capacity:8 () in
  let vnl = Twovnl.init db in
  ignore (Twovnl.register_table vnl ~n:3 ~name:table_name Fixtures.daily_sales);
  Twovnl.load_initial vnl table_name initial_rows;
  Database.save db;
  let oracle = Oracle.create Fixtures.daily_sales in
  Oracle.apply_txn oracle ~vn:1 (List.map (fun t -> Oracle.Ins t) initial_rows);
  let added = ref [] in
  let day = ref 30 in
  let pool = Array.of_list groups in
  let check_state ?(what = "state") vnl =
    let s = Twovnl.Session.begin_ vnl in
    let vn = Twovnl.Session.vn s in
    let rows = Twovnl.Session.read_table vnl s table_name in
    Twovnl.Session.end_ vnl s;
    let expected = Oracle.visible oracle ~vn in
    let projected =
      List.map (fun t -> Tuple.make Fixtures.daily_sales (project base_arity t)) rows
    in
    if not (Oracle.equal_views projected expected) then
      QCheck.Test.fail_reportf "%s: vn %d disagrees with the oracle" what vn;
    let defaults = List.map snd !added in
    List.iter
      (fun t ->
        if Tuple.arity t <> base_arity + List.length defaults then
          QCheck.Test.fail_reportf "%s: arity %d, want %d" what (Tuple.arity t)
            (base_arity + List.length defaults);
        List.iteri
          (fun i d ->
            if not (Value.equal (Tuple.get t (base_arity + i)) d) then
              QCheck.Test.fail_reportf "%s: added column %d not defaulted" what i)
          defaults)
      rows
  in
  for step = 1 to 6 do
    let vn = Twovnl.current_vn vnl + 1 in
    if Xorshift.chance rng 0.45 && List.length !added < 3 then begin
      (* Evolution: add a column (sometimes an index too). *)
      let name = Printf.sprintf "extra%d" (List.length !added) in
      let attr = Schema.attr ~updatable:(Xorshift.bool rng) name Dtype.Int in
      let default = Value.Int (Xorshift.int rng 100) in
      let s_pin = Twovnl.Session.begin_ vnl in
      let arity_before = Tuple.arity (List.hd (Twovnl.Session.read_table vnl s_pin table_name)) in
      Recovery.run_maintenance db vnl (fun txn ->
          Twovnl.Txn.add_column txn ~table:table_name attr ~default;
          if Xorshift.chance rng 0.3 then
            Twovnl.Txn.add_index txn ~table:table_name
              ~index:(Printf.sprintf "ix%d" step)
              [ "state" ]);
      Oracle.apply_txn oracle ~vn [];
      (* The pinned session keeps its pre-evolution schema view. *)
      let arity_after = Tuple.arity (List.hd (Twovnl.Session.read_table vnl s_pin table_name)) in
      if arity_after <> arity_before then
        QCheck.Test.fail_reportf "pinned session changed arity across evolution";
      Twovnl.Session.end_ vnl s_pin;
      added := !added @ [ (attr, default) ]
    end
    else begin
      (* Maintenance batch at the ORIGINAL arity: inserts are padded. *)
      let g = pool.(Xorshift.int rng (Array.length pool)) in
      incr day;
      let ops =
        [
          Batch.Insert
            (Tuple.make Fixtures.daily_sales (key_of g ~day:!day @ [ Value.Int (Xorshift.int rng 5000) ]));
          Batch.Update (key_of g ~day:14, [ (4, Value.Int (Xorshift.int rng 50_000)) ]);
        ]
      in
      Recovery.run_maintenance db vnl (fun txn ->
          ignore (Twovnl.Txn.apply_batch txn ~table:table_name ops));
      let pad t = Tuple.make Fixtures.daily_sales (project base_arity t) in
      ignore pad;
      Oracle.apply_txn oracle ~vn (List.map oracle_op ops)
    end;
    check_state ~what:(Printf.sprintf "step %d" step) vnl
  done;
  (* Reopen from disk: the generational catalog rebuilds byte-for-byte
     visible state (attach_generations path, possibly several retained
     generations). *)
  Database.save db;
  let disk = Database.disk db in
  let vnl2, out = Recovery.reopen ~pool_capacity:8 ~n:3 disk ~tables in
  if out.Recovery.interrupted then QCheck.Test.fail_report "clean reopen claimed interruption";
  if Twovnl.catalog_generation vnl2 <> List.length !added then
    QCheck.Test.fail_reportf "reopened generation %d, want %d"
      (Twovnl.catalog_generation vnl2) (List.length !added);
  check_state ~what:"after reopen" vnl2;
  true

let qcheck_evolution_sequences =
  QCheck.Test.make ~count:25 ~name:"random evolution sequences vs oracle (with reopen)"
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    evolution_sequence

(* ---------- plan-cache generations (Obs regression) ---------- *)

let counter name = Obs.Counter.get (Obs.Registry.counter name)

let test_plan_cache_per_generation () =
  let was = !Obs.enabled in
  Obs.enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.enabled := was)
    (fun () ->
      let vnl = fresh ~n:4 () in
      let q = "SELECT city, total_sales FROM DailySales" in
      let q2 = "SELECT COUNT(*) FROM DailySales" in
      let s0 = Twovnl.Session.begin_ vnl in
      let h0 = counter "twovnl.reader_plan_hits" and m0 = counter "twovnl.reader_plan_misses" in
      ignore (Twovnl.Session.query vnl s0 q);
      ignore (Twovnl.Session.query vnl s0 q2);
      check Alcotest.int "first executions compile" (m0 + 2)
        (counter "twovnl.reader_plan_misses");
      ignore (Twovnl.Session.query vnl s0 q);
      check Alcotest.int "re-execution hits" (h0 + 1) (counter "twovnl.reader_plan_hits");
      let inv0 = counter "twovnl.plan_gen_invalidations" in
      let ev0 = counter "twovnl.evolutions" in
      evolve_discount vnl;
      check Alcotest.int "evolution counted" (ev0 + 1) (counter "twovnl.evolutions");
      check Alcotest.int "both gen-0 plans invalidated for new sessions" (inv0 + 2)
        (counter "twovnl.plan_gen_invalidations");
      (* The pinned gen-0 session keeps hitting its cached plan... *)
      let h1 = counter "twovnl.reader_plan_hits" and m1 = counter "twovnl.reader_plan_misses" in
      ignore (Twovnl.Session.query vnl s0 q);
      check Alcotest.int "pinned session still hits" (h1 + 1)
        (counter "twovnl.reader_plan_hits");
      check Alcotest.int "pinned session never recompiles" m1
        (counter "twovnl.reader_plan_misses");
      (* ...while the same statement under gen 1 misses (no stale hit),
         compiles against the new registry, then hits its own cache. *)
      let s1 = Twovnl.Session.begin_ vnl in
      ignore (Twovnl.Session.query vnl s1 q);
      check Alcotest.int "gen-1 first execution misses" (m1 + 1)
        (counter "twovnl.reader_plan_misses");
      ignore (Twovnl.Session.query vnl s1 q);
      check Alcotest.int "gen-1 re-execution hits" (h1 + 2)
        (counter "twovnl.reader_plan_hits");
      (* The caches really are distinct: the gen-1 plan resolves the new
         column, the gen-0 plan must keep failing to. *)
      ignore (Twovnl.Session.query vnl s1 "SELECT discount FROM DailySales");
      (try
         ignore (Twovnl.Session.query vnl s0 "SELECT discount FROM DailySales");
         Alcotest.fail "gen-0 session served a gen-1 plan"
       with
      | Twovnl.Expired _ -> Alcotest.fail "unexpected expiry"
      | _ -> ());
      Twovnl.Session.end_ vnl s0;
      Twovnl.Session.end_ vnl s1)

(* ---------- generation retirement ---------- *)

let test_generation_gc () =
  let vnl = fresh () in
  let s_old = Twovnl.Session.begin_ vnl in
  evolve_discount vnl;
  (* The pinned session holds generation 0 (and its frozen table) alive. *)
  ignore (Twovnl.collect_garbage vnl);
  let db = Twovnl.database vnl in
  check Alcotest.int "both generations retained while pinned" 2
    (List.length (Database.generations_meta db));
  Twovnl.Session.end_ vnl s_old;
  ignore (Twovnl.collect_garbage vnl);
  check Alcotest.int "old generation retired once unpinned" 1
    (List.length (Database.generations_meta db));
  check Alcotest.bool "frozen pre-evolution table dropped" true
    (List.for_all (fun tbl -> not (String.contains (Table.name tbl) '@')) (Database.tables db));
  (* The survivor still serves readers. *)
  let s = Twovnl.Session.begin_ vnl in
  check Alcotest.int "rows survive retirement" (List.length initial_rows)
    (List.length (Twovnl.Session.read_table vnl s table_name));
  Twovnl.Session.end_ vnl s

(* ---------- free-running readers across an evolution ---------- *)

(* add_column + CREATE VIEW committed while >= 4 reader domains free-run:
   every session must be internally consistent (engine read and SQL count
   agree; arity matches the session's generation; defaults filled), and
   no decode error or corrupt page may surface.  Expiry is the only
   acceptable interruption. *)
(* Same strict knob contract as test_parallel_stress: a set-but-broken
   value must fail the run, not silently fall back. *)
let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v > 0 -> v
    | Some _ | None -> Alcotest.failf "%s: expected a positive integer" name)

let test_free_readers_during_evolution () =
  let vnl = fresh ~n:3 () in
  let readers = env_int "VNL_STRESS_DOMAINS" 4 in
  let stop = Atomic.make false in
  let errors = Atomic.make 0 in
  let checked = Atomic.make 0 in
  let results =
    Domain_pool.run ~domains:(readers + 1) (fun ~start rank ->
        start ();
        if rank = 0 then begin
          Recovery.run_maintenance (Twovnl.database vnl) vnl (fun txn ->
              ignore
                (Twovnl.Txn.apply_batch txn ~table:table_name
                   [ Batch.Update (key_of ("Reno", "NV", "golf equip") ~day:14, [ (4, Value.Int 9) ]) ]));
          Recovery.run_maintenance (Twovnl.database vnl) vnl (fun txn ->
              Twovnl.Txn.add_column txn ~table:table_name discount ~default:(Value.Int 7);
              Twovnl.Txn.add_table txn ~name:"PromoSales" promo_schema;
              Twovnl.Txn.insert txn ~table:"PromoSales" [ Value.Str "Reno"; Value.Int 42 ]);
          Recovery.run_maintenance (Twovnl.database vnl) vnl (fun txn ->
              ignore
                (Twovnl.Txn.apply_batch txn ~table:table_name
                   [
                     Batch.Insert
                       (Tuple.make Fixtures.daily_sales
                          (key_of ("Tahoe", "NV", "skiing") ~day:21 @ [ Value.Int 5 ]));
                   ]));
          Atomic.set stop true;
          0
        end
        else begin
          let local = ref 0 in
          while not (Atomic.get stop) do
            let s = Twovnl.Session.begin_ vnl in
            (try
               let gen = Twovnl.Session.generation vnl s in
               let rows = Twovnl.Session.read_table vnl s table_name in
               let want_arity = if gen = 0 then base_arity else base_arity + 1 in
               List.iter
                 (fun t ->
                   if Tuple.arity t <> want_arity then Atomic.incr errors;
                   if gen > 0 && not (Value.equal (Tuple.get t base_arity) (Value.Int 7)) then
                     Atomic.incr errors)
                 rows;
               (* Cross-path consistency pair: SQL through the plan cache
                  and the engine-level extract must agree. *)
               let r = Twovnl.Session.query vnl s "SELECT COUNT(*) FROM DailySales" in
               (match r.Vnl_query.Executor.rows with
               | [ [ Value.Int n ] ] -> if n <> List.length rows then Atomic.incr errors
               | _ -> Atomic.incr errors);
               (* The new view resolves iff the session's generation has it. *)
               (match Twovnl.Session.read_table vnl s "PromoSales" with
               | rows' -> if gen = 0 || List.length rows' <> 1 then Atomic.incr errors
               | exception Failure _ -> if gen <> 0 then Atomic.incr errors);
               incr local;
               Atomic.incr checked
             with Twovnl.Expired _ -> ());
            Twovnl.Session.end_ vnl s
          done;
          !local
        end)
  in
  ignore results;
  check Alcotest.int "zero inconsistent reads" 0 (Atomic.get errors);
  Alcotest.(check bool) "readers actually ran" true (Atomic.get checked > 0);
  check Alcotest.int "evolution committed under load" 1 (Twovnl.catalog_generation vnl)

(* ---------- the reader plan cache's bound ---------- *)

(* [k] candidates from [base + 1]: k candidates make k shapes.  Every row's
   total_sales is 1000, so the answer is all rows or none. *)
let in_list_query ~base k =
  Printf.sprintf "SELECT COUNT(*), SUM(total_sales) FROM DailySales WHERE total_sales IN (%s)"
    (String.concat ", " (List.init k (fun i -> string_of_int (base + i + 1))))

let in_list_answer ~base k =
  let rows = List.length initial_rows in
  if base < 1000 && 1000 <= base + k then [ [ Value.Int rows; Value.Int (1000 * rows) ] ]
  else [ [ Value.Int 0; Value.Null ] ]

let test_plan_cache_bound () =
  let was = !Obs.enabled in
  Obs.enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.enabled := was)
    (fun () ->
      let vnl = fresh () in
      let db = Twovnl.database vnl in
      let s = Twovnl.Session.begin_ vnl in
      let bound = Twovnl.reader_plan_bound in
      let run ~base k =
        let src = in_list_query ~base k in
        let got = Twovnl.Session.query vnl s src in
        let interp =
          Vnl_query.Executor.query db
            ~params:[ ("sessionVN", Value.Int (Twovnl.Session.vn s)) ]
            (Vnl_core.Rewrite.reader_select ~lookup:(Twovnl.lookup vnl)
               (Vnl_sql.Parser.parse_select src))
        in
        if not (Vnl_query.Plan.result_equal got interp) then
          Alcotest.failf "%d candidates from %d: Session.query differs from the interpreter" k base;
        check
          Alcotest.(list (list (of_pp Value.pp)))
          "answer" (in_list_answer ~base k) got.Vnl_query.Plan.rows;
        if Twovnl.reader_plan_count vnl > bound then
          Alcotest.failf "%d shapes cached, bound %d" (Twovnl.reader_plan_count vnl) bound
      in
      let extra = 64 in
      let ev0 = counter "twovnl.reader_plan_evictions" in
      for k = 1 to bound + extra do
        run ~base:(990 - (k mod 3)) k
      done;
      check Alcotest.int "cache full" bound (Twovnl.reader_plan_count vnl);
      check Alcotest.int "one eviction per shape past the bound" (ev0 + extra)
        (counter "twovnl.reader_plan_evictions");
      (* The one-candidate shape went first: it recompiles and still
         answers right, with other literals. *)
      let m0 = counter "twovnl.reader_plan_misses" and h0 = counter "twovnl.reader_plan_hits" in
      run ~base:999 1;
      run ~base:5 1;
      check Alcotest.int "evicted shape recompiles once" (m0 + 1)
        (counter "twovnl.reader_plan_misses");
      check Alcotest.int "then hits" (h0 + 1) (counter "twovnl.reader_plan_hits");
      Twovnl.Session.end_ vnl s)

(* Reader domains run more shapes than the bound while the maintainer
   commits an evolution: compiles, evictions and the generation flip race
   each other.  Every answer must be exact, and the head generation's
   cache must never exceed the bound. *)
let test_plan_cache_bound_under_domains () =
  let vnl = fresh ~n:3 () in
  let readers = env_int "VNL_STRESS_DOMAINS" 4 in
  let shapes = Twovnl.reader_plan_bound + 64 in
  let queries = Atomic.make 0 and errors = Atomic.make 0 and first_error = Atomic.make None in
  let stop = Atomic.make false in
  let fail msg =
    Atomic.incr errors;
    ignore (Atomic.compare_and_set first_error None (Some msg))
  in
  let wait_for n =
    while Atomic.get queries < n && Atomic.get errors = 0 do
      Domain.cpu_relax ()
    done
  in
  ignore
    (Domain_pool.run ~domains:(readers + 1) (fun ~start rank ->
         start ();
         if rank = 0 then
           Fun.protect
             ~finally:(fun () -> Atomic.set stop true)
             (fun () ->
               wait_for (2 * shapes);
               evolve_discount vnl;
               wait_for (4 * shapes))
         else begin
           let rng = Xorshift.create (7919 * rank) in
           while not (Atomic.get stop || Atomic.get errors > 0) do
             let k = 1 + Xorshift.int rng shapes and base = 990 - Xorshift.int rng 20 in
             let s = Twovnl.Session.begin_ vnl in
             (match Twovnl.Session.query vnl s (in_list_query ~base k) with
             | r ->
               if r.Vnl_query.Plan.rows <> in_list_answer ~base k then
                 fail (Printf.sprintf "%d candidates from %d: wrong answer" k base)
             | exception Twovnl.Expired _ -> ()
             | exception e -> fail (Printexc.to_string e));
             Twovnl.Session.end_ vnl s;
             let cached = Twovnl.reader_plan_count vnl in
             if cached > Twovnl.reader_plan_bound then
               fail (Printf.sprintf "%d shapes cached" cached);
             Atomic.incr queries
           done
         end;
         0));
  (match Atomic.get first_error with Some msg -> Alcotest.fail msg | None -> ());
  check Alcotest.int "evolution committed under load" 1 (Twovnl.catalog_generation vnl)

let suite =
  [
    Alcotest.test_case "generation pinning: old sessions never see the column" `Quick
      test_generation_pinning;
    Alcotest.test_case "CREATE VIEW + CREATE INDEX in one evolution" `Quick
      test_add_view_and_index;
    Alcotest.test_case "abort unstages the pending generation" `Quick
      test_evolution_abort_unstages;
    Alcotest.test_case "scheduled interleavings vs oracle" `Quick test_scheduled_interleavings;
    Alcotest.test_case "scheduled interleavings are deterministic" `Quick
      test_scheduled_deterministic;
    Alcotest.test_case "crash-at-every-write-k sweep over the evolution ladder" `Quick
      test_crash_sweep;
    QCheck_alcotest.to_alcotest qcheck_widen_decode;
    QCheck_alcotest.to_alcotest qcheck_evolution_sequences;
    Alcotest.test_case "plan cache is per-generation" `Quick test_plan_cache_per_generation;
    Alcotest.test_case "GC retires unpinnable generations" `Quick test_generation_gc;
    Alcotest.test_case "free-running readers across an evolution" `Quick
      test_free_readers_during_evolution;
    Alcotest.test_case "plan cache holds at most its bound" `Quick test_plan_cache_bound;
    Alcotest.test_case "plan cache bound under reader domains and an evolution" `Quick
      test_plan_cache_bound_under_domains;
  ]
