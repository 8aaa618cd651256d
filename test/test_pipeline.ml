(* The pipelined maintenance round: partitioning laws, differential
   equivalence against the serial reference schedule, deterministic
   reader/worker interleavings against the full-history oracle, the
   crash-at-every-write sweep landing on a VN (stripe) boundary, and,
   through the warehouse, the abort/requeue sweeps and the float-residue
   cases of the refresh's netting.

   The serial reference for a round is {!Vnl_core.Pipeline.stripe_keys}
   (mapped back to the operations the round's changes were built from,
   {!Fixtures.stripe_ops}): applying stripe i's operations as one classic
   transaction committing at vn_i, in stripe order.  Everything here is
   phrased against that reference — the pipelined executor may only
   reorder what the reference proves independent. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Disk = Vnl_storage.Disk
module Twovnl = Vnl_core.Twovnl
module Batch = Vnl_core.Batch
module Sched_batch = Vnl_core.Sched_batch
module Pipeline = Vnl_core.Pipeline
module Recovery = Vnl_core.Recovery
module Sched = Vnl_util.Sched
module Xorshift = Vnl_util.Xorshift
module Dtype = Vnl_relation.Dtype
module Schema = Vnl_relation.Schema
module View_def = Vnl_warehouse.View_def
module Delta = Vnl_warehouse.Delta
module Warehouse = Vnl_warehouse.Warehouse
module Sales_gen = Vnl_workload.Sales_gen

let check = Alcotest.check

let table_name = "DailySales"

let cities = [| "San Jose"; "Berkeley"; "Novato"; "Fresno"; "Reno"; "Tahoe" |]

let key_of i day =
  [
    Value.Str cities.(i mod Array.length cities);
    Value.Str "CA";
    Value.Str (Printf.sprintf "line-%d" (i / Array.length cities));
    Value.date_of_mdy 10 day 96;
  ]

let row_of key sales = Tuple.make Fixtures.daily_sales (key @ [ Value.Int sales ])

let initial_keys = List.init 18 (fun i -> key_of i 13)

let initial_rows = List.map (fun k -> row_of k 1000) initial_keys

let build ?n () =
  let db = Database.create ~pool_capacity:4 () in
  let vnl = Twovnl.init db in
  ignore (Twovnl.register_table vnl ?n ~name:table_name Fixtures.daily_sales);
  Twovnl.load_initial vnl table_name initial_rows;
  (db, vnl)

(* A random batch with at most one op per key — the shape the pipeline
   receives from net-effect classification.  Updates and deletes draw from
   the initial keys, inserts take fresh day-20 keys. *)
let gen_net_ops rng =
  let shuffled = Array.of_list initial_keys in
  Xorshift.shuffle rng shuffled;
  let n_upd = 4 + Xorshift.int rng 8 in
  let n_del = 1 + Xorshift.int rng 3 in
  let ops = ref [] in
  for i = 0 to n_upd - 1 do
    ops := Batch.Update (shuffled.(i), [ (4, Value.Int (Xorshift.int rng 50_000)) ]) :: !ops
  done;
  for i = n_upd to n_upd + n_del - 1 do
    ops := Batch.Delete shuffled.(i) :: !ops
  done;
  for i = 0 to 3 + Xorshift.int rng 6 do
    ops := Batch.Insert (row_of (key_of i 20) (Xorshift.int rng 9_000)) :: !ops
  done;
  List.rev !ops

(* A hand-built round of [ops] against [vnl]'s current state, and its
   serial reference schedule. *)
let plan_round vnl ~workers ops =
  Pipeline.plan vnl ~workers [ (table_name, Fixtures.changes_of_ops vnl table_name ops) ]

let stripe_ops vnl plan ops = Fixtures.stripe_ops vnl plan [ (table_name, ops) ]

(* --- partitioning laws ------------------------------------------------ *)

let qcheck_partition_laws =
  QCheck.Test.make ~name:"partitions are key-disjoint, ordered, and complete" ~count:100
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 1_000_000) (int_range 1 6))
       ~print:(fun (s, p) -> Printf.sprintf "seed=%d max_parts=%d" s p))
    (fun (seed, max_parts) ->
      let _, vnl = build () in
      let h = Twovnl.handle_exn vnl table_name in
      let rng = Xorshift.create seed in
      (* Duplicate some keys on purpose: the partitioner must keep every
         key's ops together and in order even when the batch is not net. *)
      let base = gen_net_ops rng in
      let dups =
        List.filter_map
          (fun op ->
            match op with
            | Batch.Update (k, _) when Xorshift.bool rng ->
              Some (Batch.Update (k, [ (4, Value.Int (Xorshift.int rng 99)) ]))
            | _ -> None)
          base
      in
      let ops = base @ dups in
      let changes = Fixtures.changes_of_ops vnl table_name ops in
      let parts = Sched_batch.partition (Twovnl.ext h) (Twovnl.table h) ~max_parts changes in
      (* Bounded. *)
      List.length parts <= max_parts
      (* Complete and order-preserving: each partition is a subsequence,
         and together they tile the batch. *)
      && List.concat_map (fun p -> p.Sched_batch.changes) parts
         |> List.for_all (fun c -> List.memq c changes)
      && List.length (List.concat_map (fun p -> p.Sched_batch.changes) parts)
         = List.length changes
      && List.for_all
           (fun p ->
             let rec subseq xs ys =
               match (xs, ys) with
               | [], _ -> true
               | _, [] -> false
               | x :: xs', y :: ys' -> if x == y then subseq xs' ys' else subseq xs ys'
             in
             subseq p.Sched_batch.changes changes)
           parts
      (* Key-disjoint. *)
      && (let seen = Hashtbl.create 64 in
          List.for_all
            (fun (i, p) ->
              List.for_all
                (fun (c : Batch.change) ->
                  match Hashtbl.find_opt seen c.key with
                  | Some j -> j = i
                  | None ->
                    Hashtbl.add seen c.key i;
                    true)
                p.Sched_batch.changes)
            (List.mapi (fun i p -> (i, p)) parts))
      (* Counts are truthful. *)
      && List.for_all
           (fun p -> p.Sched_batch.op_count = List.length p.Sched_batch.changes)
           parts)

(* A secondary index is a shared structure: updates assigning an indexed
   attribute from different seed buckets must collapse into one partition,
   and structural ops touch every index.  With an index on total_sales,
   every operation of this batch shares a footprint — the partitioner must
   refuse to split it no matter how many workers ask. *)
let test_secondary_index_forces_merge () =
  let _, vnl = build () in
  let h = Twovnl.handle_exn vnl table_name in
  let changes ops = Fixtures.changes_of_ops vnl table_name ops in
  let ops =
    List.init 12 (fun i -> Batch.Update (key_of i 13, [ (4, Value.Int (100 + i)) ]))
  in
  let before = Sched_batch.partition (Twovnl.ext h) (Twovnl.table h) ~max_parts:4 (changes ops) in
  Alcotest.(check bool) "without the index the batch splits" true (List.length before > 1);
  Table.create_index (Twovnl.table h) ~name:"by_sales" [ "total_sales" ];
  let after = Sched_batch.partition (Twovnl.ext h) (Twovnl.table h) ~max_parts:4 (changes ops) in
  check Alcotest.int "the shared index footprint merges every partition" 1 (List.length after);
  (* Mixed batch: inserts enter every index, so they too glue partitions. *)
  let mixed = Batch.Insert (row_of (key_of 0 20) 5) :: List.tl ops in
  let merged =
    Sched_batch.partition (Twovnl.ext h) (Twovnl.table h) ~max_parts:4 (changes mixed)
  in
  check Alcotest.int "structural ops share every index footprint" 1 (List.length merged)

(* --- differential equivalence ----------------------------------------- *)

let visible vnl =
  let s = Twovnl.Session.begin_ vnl in
  let rows = Twovnl.Session.read_table vnl s table_name in
  Twovnl.Session.end_ vnl s;
  List.sort Tuple.compare rows

(* Byte identity of the whole image, header and catalog pages included:
   both schedules write the catalog exactly when it changed (at the first
   flag, and when a stripe's heap grew), so the double buffer lands on the
   same generation in both. *)
let check_bytes_identical ctx db_a db_b =
  Database.save db_a;
  Database.save db_b;
  let da = Database.disk db_a and db' = Database.disk db_b in
  check Alcotest.int (ctx ^ ": page counts") (Disk.page_count da) (Disk.page_count db');
  for pid = 0 to Disk.page_count da - 1 do
    if not (Bytes.equal (Disk.read da pid) (Disk.read db' pid)) then
      Alcotest.fail (Printf.sprintf "%s: page %d bytes differ" ctx pid)
  done

(* The pipelined round against its own serial reference schedule: the same
   stripes applied as classic one-VN transactions, in order, on a twin
   warehouse.  Slot assignment, version stamps, page images — everything
   must come out byte-identical. *)
let run_differential ~workers seed =
  let db_p, vnl_p = build ~n:(workers + 1) () in
  let db_s, vnl_s = build ~n:(workers + 1) () in
  let ops = gen_net_ops (Xorshift.create seed) in
  let plan = plan_round vnl_p ~workers ops in
  let reference = stripe_ops vnl_p plan ops in
  let report = Pipeline.run plan in
  check Alcotest.int "every stripe published" report.Pipeline.stripes
    (List.length reference);
  List.iter
    (fun (vn, per_table) ->
      ignore
        (Recovery.run_maintenance db_s vnl_s (fun txn ->
             check Alcotest.int "reference txn lands at the stripe's vn" vn
               (Twovnl.Txn.vn txn);
             List.iter
               (fun (name, ops) -> ignore (Twovnl.Txn.apply_batch txn ~table:name ops))
               per_table)))
    reference;
  Alcotest.(check bool) "reader-visible states agree" true
    (List.equal Tuple.equal (visible vnl_p) (visible vnl_s));
  check_bytes_identical (Printf.sprintf "workers=%d seed=%d" workers seed) db_p db_s

let test_differential_single_stripe () = run_differential ~workers:1 7

let test_differential_multi_stripe () =
  List.iter (fun seed -> run_differential ~workers:3 seed) [ 1; 2; 42 ]

let qcheck_pipelined_equals_serial =
  QCheck.Test.make ~name:"pipelined round byte-identical to serial stripe replay" ~count:25
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 1_000_000) (int_range 2 4))
       ~print:(fun (s, w) -> Printf.sprintf "seed=%d workers=%d" s w))
    (fun (seed, workers) ->
      run_differential ~workers seed;
      true)

(* --- deterministic interleavings with readers ------------------------- *)

let sum_rows rows =
  List.fold_left
    (fun acc t -> match Tuple.get t 4 with Value.Int n -> acc + n | _ -> acc)
    0 rows

let oracle_op = function
  | Batch.Insert t -> Oracle.Ins t
  | Batch.Update (k, a) -> Oracle.Upd (k, a)
  | Batch.Delete k -> Oracle.Del k

(* Workers and readers as fibers of the deterministic scheduler: every
   interleaving the seed picks must show each reader exactly its session's
   oracle state, no matter where between stripe publishes it looks. *)
let scheduled_round ~data_seed ~sched_seed ~workers =
  let _, vnl = build ~n:(workers + 1) () in
  let oracle = Oracle.create Fixtures.daily_sales in
  Oracle.apply_txn oracle ~vn:1 (List.map (fun t -> Oracle.Ins t) initial_rows);
  let ops = gen_net_ops (Xorshift.create data_seed) in
  let plan = plan_round vnl ~workers ops in
  List.iter
    (fun (vn, per_table) ->
      List.iter
        (fun (_, ops) -> Oracle.apply_txn oracle ~vn (List.map oracle_op ops))
        per_table)
    (stripe_ops vnl plan ops);
  let reader name =
    ( name,
      fun () ->
        for _ = 1 to 3 do
          let s = Twovnl.Session.begin_ vnl in
          (try
             let rows = Twovnl.Session.read_table vnl s table_name in
             let expected = Oracle.visible oracle ~vn:(Twovnl.Session.vn s) in
             if not (Oracle.equal_views rows expected) then
               Alcotest.failf "%s at vn %d saw %d rows, oracle has %d" name
                 (Twovnl.Session.vn s) (List.length rows) (List.length expected);
             if sum_rows rows <> sum_rows expected then
               Alcotest.failf "%s at vn %d sum mismatch" name (Twovnl.Session.vn s)
           with Twovnl.Expired _ -> ());
          Twovnl.Session.end_ vnl s;
          Sched.yield ()
        done )
  in
  let trace =
    Sched.run ~seed:sched_seed (Pipeline.tasks plan @ [ reader "reader-1"; reader "reader-2" ])
  in
  let report = Pipeline.finish plan in
  check Alcotest.int "all stripes published" (Pipeline.stripe_count plan)
    report.Pipeline.stripes;
  let final = Oracle.visible oracle ~vn:(report.Pipeline.base_vn + report.Pipeline.stripes) in
  Alcotest.(check bool) "final state equals oracle" true
    (Oracle.equal_views (visible vnl) final);
  trace

let test_scheduled_interleavings () =
  for sched_seed = 1 to 10 do
    ignore (scheduled_round ~data_seed:42 ~sched_seed ~workers:3)
  done

let test_scheduled_workloads () =
  List.iter
    (fun data_seed -> ignore (scheduled_round ~data_seed ~sched_seed:5 ~workers:2))
    [ 3; 17; 99 ]

let test_scheduled_deterministic () =
  let t1 = scheduled_round ~data_seed:42 ~sched_seed:9 ~workers:3 in
  let t2 = scheduled_round ~data_seed:42 ~sched_seed:9 ~workers:3 in
  check (Alcotest.list Alcotest.string) "same seed, same schedule" t1 t2

(* A session opened at round begin outlives the whole round at n = k + 1
   (the plan caps stripes accordingly), and keeps reading the pre-round
   state while stripes publish past it. *)
let test_session_survives_round () =
  let _, vnl = build ~n:4 () in
  let pre = visible vnl in
  let s = Twovnl.Session.begin_ vnl in
  let ops = gen_net_ops (Xorshift.create 11) in
  let plan = plan_round vnl ~workers:3 ops in
  let report = Pipeline.run plan in
  check Alcotest.int "round used every slot n - 1 allows" 3 report.Pipeline.stripes;
  Alcotest.(check bool) "round-begin session survives the round" true
    (Twovnl.Session.is_valid vnl s);
  Alcotest.(check bool) "and still reads the pre-round state" true
    (List.equal Tuple.equal pre
       (List.sort Tuple.compare (Twovnl.Session.read_table vnl s table_name)));
  Twovnl.Session.end_ vnl s

(* --- crash sweep: every crash lands on a stripe boundary -------------- *)

let tables = [ (table_name, Fixtures.daily_sales) ]

(* Build a cleanly saved base image holding the initial rows. *)
let build_base () =
  let db = Database.create ~pool_capacity:4 () in
  let vnl = Twovnl.init db in
  ignore (Twovnl.register_table vnl ~n:4 ~name:table_name Fixtures.daily_sales);
  Twovnl.load_initial vnl table_name initial_rows;
  Database.save db;
  Database.disk db

let reopen disk = Recovery.reopen ~pool_capacity:4 ~n:4 disk ~tables

let run_pipelined_round vnl ops ~workers =
  let plan = plan_round vnl ~workers ops in
  (stripe_ops vnl plan ops, Pipeline.run plan)

(* Crash at every physical write of a pipelined round of [ops]; §7
   adapted to rounds: recovery must land exactly on a published-VN prefix —
   the state after stripes 0..j for some j (j = -1 is the pre-round
   state), never a mixture of two stripes.  Clean crashes leave write k
   unwritten or complete; with [tear], a random proper prefix of it lands
   too, and reopen must either catch it by checksum or land on a prefix.
   Returns the round's stripe count, whether its commit changed the
   catalog, and per prefix state the number of crashes that recovered to
   it. *)
let sweep_round ?(tear = false) ~workers ops =
  let base = build_base () in
  (* Fault-free dry run: the stripes, then the write sequence (which must
     have the ladder's shape) and each stripe-prefix state, taken by
     replaying the reference schedule one stripe at a time. *)
  let reference =
    let d = Disk.clone base in
    let vnl, out = reopen d in
    Alcotest.(check bool) "clean image needs no repair" false out.Recovery.interrupted;
    fst (run_pipelined_round vnl ops ~workers)
  in
  let ladder =
    Fixtures.check_ladder ~ctx:"round" ~publishes:(List.length reference) base
      ~setup:(fun d -> fst (reopen d))
      ~run:(fun vnl -> ignore (run_pipelined_round vnl ops ~workers))
  in
  let prefixes =
    let d = Disk.clone base in
    let vnl, _ = reopen d in
    let states = ref [ visible vnl ] in
    List.iter
      (fun (_, per_table) ->
        let m = Twovnl.Txn.begin_ vnl in
        List.iter
          (fun (name, ops) -> ignore (Twovnl.Txn.apply_batch m ~table:name ops))
          per_table;
        Twovnl.Txn.commit m;
        states := visible vnl :: !states)
      reference;
    List.rev !states
  in
  let hit = Array.make (List.length prefixes) 0 in
  let rng = Xorshift.create 7919 in
  let crash k prefix =
    let d = Disk.clone base in
    let vnl, _ = reopen d in
    Disk.set_faults d { Disk.no_faults with Disk.crash_at_write = Some k; torn_prefix = prefix };
    (try
       ignore (run_pipelined_round vnl ops ~workers);
       Alcotest.failf "crash point %d did not fire" k
     with Disk.Crash _ -> ());
    Disk.clear_faults d;
    match reopen d with
    | exception Disk.Corrupt_page _ when prefix > 0 && prefix < Disk.page_size d -> ()
    | vnl2, _ -> (
      let state = visible vnl2 in
      match List.find_index (fun p -> List.equal Tuple.equal p state) prefixes with
      | Some j -> hit.(j) <- hit.(j) + 1
      | None ->
        Alcotest.failf "crash at write %d (%d bytes) recovered to a state on no stripe boundary"
          k prefix)
  in
  for k = 1 to ladder.Fixtures.writes do
    crash k 0;
    crash k (Disk.page_size base);
    if tear then crash k (1 + Xorshift.int rng (Disk.page_size base - 1))
  done;
  (List.length reference, ladder.Fixtures.catalog_changed, hit)

let test_crash_sweep_lands_on_stripe_boundary () =
  let stripes, _, hit = sweep_round ~workers:3 (gen_net_ops (Xorshift.create 23)) in
  Alcotest.(check bool) "round split into multiple stripes" true (stripes > 1);
  (* The sweep must actually exercise more than one boundary. *)
  Alcotest.(check bool) "several distinct boundaries were hit" true
    (Array.fold_left (fun acc c -> acc + min c 1) 0 hit >= 2)

(* The [Warehouse.refresh] default: one stripe, whose token section writes
   the catalog only because the batch grows the heap — more fresh rows than
   a page holds.  Swept clean and torn at every write. *)
let test_one_stripe_sweep_grows_heap () =
  let per_page =
    let _, vnl = build () in
    Vnl_storage.Heap_file.tuples_per_page (Table.heap (Twovnl.table (Twovnl.handle_exn vnl table_name)))
  in
  let inserts = List.init per_page (fun i -> Batch.Insert (row_of (key_of i 21) i)) in
  let ops = gen_net_ops (Xorshift.create 31) @ inserts in
  let stripes, catalog_changed, hit = sweep_round ~tear:true ~workers:1 ops in
  check Alcotest.int "one stripe" 1 stripes;
  Alcotest.(check bool) "the batch grew the heap, so the catalog changed" true catalog_changed;
  Alcotest.(check bool) "early crash points recover to pre" true (hit.(0) > 0);
  Alcotest.(check bool) "late crash points recover to post" true (hit.(1) > 0)

(* ------------------------------------------------------------------ *)
(* Abort and requeue through the warehouse

   Killing a round at any (phase, stripe) point leaves each view's queue
   holding exactly the source changes the aborted suffix failed to
   propagate, in arrival order, and a follow-up one-stripe refresh
   converges byte-identically to the source recomputation.  The kill is
   injected through [Pipeline.plan]'s [on_phase] hook and driven by the
   deterministic scheduler, so every failure point is replayable. *)

let view_name = "DailySales"

let view = Sales_gen.daily_sales_view ()

let sale city pl day amount =
  Tuple.make Sales_gen.sales_schema
    [ Value.Str city; Value.Str "CA"; Value.Str pl; Sales_gen.date_of_day day;
      Value.Int amount ]

let sorted = List.sort Tuple.compare

let views_equal a b = List.equal Tuple.equal (sorted a) (sorted b)

(* ------------------------------------------------------------------ *)
(* Abort/requeue sweep *)

exception Killed of Pipeline.phase * int

(* Deterministic execution of a planned round: the stripe workers as
   fibers under the seeded scheduler, then the ordinary join. *)
let sched_run ~seed plan =
  ignore (Sched.run ~seed (Pipeline.tasks plan));
  Pipeline.finish plan

(* A mixed batch over a preloaded warehouse: fresh groups, accumulating
   sales into existing groups, amount corrections, cross-group updates
   (product line restated — old and new rows in different groups), and
   returns.  Drawn deterministically so every sweep point sees the same
   batch. *)
let mixed_batch rng src ~day =
  let base = Sales_gen.gen_batch rng src ~day ~inserts:40 ~updates:6 ~deletes:4 in
  (* A guaranteed cross-group update: the city is outside the generator's
     vocabulary so the pair can never collide with [base]'s victims, and
     the product-line change moves the row between groups — exercising the
     Update → Insert/Delete decomposition at the published boundary. *)
  let fresh = sale "Crossville" "tennis" day 7 in
  let moved = Tuple.set fresh 2 (Value.Str "camping") in
  base @ [ Delta.Insert fresh; Delta.Update (fresh, moved) ]

let mk_loaded_warehouse ~n ~seed =
  let wh = Warehouse.create ~n [ view ] in
  let rng = Xorshift.create seed in
  Warehouse.queue_changes wh ~view:view_name
    (Sales_gen.initial_load rng ~days:3 ~sales_per_day:60);
  ignore (Warehouse.refresh wh);
  (wh, rng)

(* [requeued] must be exactly a suffix selection of [original] in arrival
   order: every requeued change matches a later original change than the
   previous one did, where an original [Update] may stand for itself or
   for either decomposed half (the published-boundary straddle). *)
let check_requeue_order ~original ~requeued =
  let covers orig req =
    match (orig, req) with
    | Delta.Update (o, n), Delta.Update (o', n') -> Tuple.equal o o' && Tuple.equal n n'
    | Delta.Update (_, n), Delta.Insert r | Delta.Insert n, Delta.Insert r ->
      Tuple.equal n r
    | Delta.Update (o, _), Delta.Delete r | Delta.Delete o, Delta.Delete r ->
      Tuple.equal o r
    | _ -> false
  in
  let rec walk orig reqs =
    match reqs with
    | [] -> true
    | req :: rest -> (
      match orig with
      | [] -> false
      | o :: orest -> if covers o req then walk orest rest else walk orest reqs)
  in
  if not (walk original requeued) then
    Alcotest.failf "requeued changes are not an ordered selection of the batch (%d of %d)"
      (List.length requeued) (List.length original)

let run_kill_point ~workers ~seed (phase, stripe) =
  let wh, rng = mk_loaded_warehouse ~n:(workers + 1) ~seed in
  let src = Warehouse.source wh view_name in
  let batch = mixed_batch rng src ~day:3 in
  Warehouse.queue_changes wh ~view:view_name batch;
  let original = Warehouse.peek_pending wh ~view:view_name in
  let on_phase p ~stripe:i = if p = phase && i = stripe then raise (Killed (p, i)) in
  let killed =
    match
      Warehouse.refresh ~workers ~on_phase ~run:(sched_run ~seed) wh
    with
    | _ -> false
    | exception Killed _ -> true
  in
  if killed then begin
    (* (a) the queue holds exactly the unpublished suffix, in order. *)
    let requeued = Warehouse.peek_pending wh ~view:view_name in
    check_requeue_order ~original ~requeued;
    (* Nothing beyond the drained batch may have appeared. *)
    Alcotest.(check bool) "requeued bounded by batch" true
      (List.length requeued <= List.length original)
  end;
  (* (b) a follow-up one-stripe refresh lands byte-identically on the source
     recomputation — zero lost (and zero double-applied) changes, whether
     or not the kill point was reached. *)
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let got = Warehouse.read_view wh s view_name in
  Warehouse.end_session wh s;
  let expected = Warehouse.expected_view wh view_name in
  if not (views_equal got expected) then
    Alcotest.failf "view diverged after kill at stripe %d" stripe;
  killed

let test_abort_requeue_sweep () =
  let stripe0_points = ref 0 and stripe0_kills = ref 0 in
  let later_kills = ref 0 in
  List.iter
    (fun workers ->
      List.iter
        (fun phase ->
          for stripe = 0 to workers - 1 do
            List.iter
              (fun seed ->
                let killed = run_kill_point ~workers ~seed (phase, stripe) in
                if stripe = 0 then begin
                  incr stripe0_points;
                  if killed then incr stripe0_kills
                end
                else if killed then incr later_kills)
              [ 3; 17 ]
          done)
        [ `Fold; `Apply; `Token ])
    [ 2; 3 ];
  (* Stripe 0 exists whenever the round has work, so those kill points
     must all fire; higher stripes depend on how the batch partitions
     (convergence is still asserted either way), but the sweep must have
     exercised at least one mid-round abort with a published prefix. *)
  check Alcotest.int "every stripe-0 kill fired" !stripe0_points !stripe0_kills;
  Alcotest.(check bool) "some multi-stripe kill fired" true (!later_kills > 0)

let test_abort_requeue_real_domains () =
  (* One kill point through the real [Pipeline.run] path: the requeue
     logic must not depend on the deterministic scheduler. *)
  let wh, rng = mk_loaded_warehouse ~n:3 ~seed:91 in
  let src = Warehouse.source wh view_name in
  let batch = mixed_batch rng src ~day:3 in
  Warehouse.queue_changes wh ~view:view_name batch;
  let on_phase p ~stripe:i = if p = `Apply && i = 0 then raise (Killed (p, i)) in
  (match Warehouse.refresh ~workers:2 ~on_phase wh with
  | _ -> Alcotest.fail "kill point not reached"
  | exception Killed _ -> ());
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let got = Warehouse.read_view wh s view_name in
  Warehouse.end_session wh s;
  Alcotest.(check bool) "converged" true
    (views_equal got (Warehouse.expected_view wh view_name))

let test_plan_failure_requeues_everything () =
  let wh, rng = mk_loaded_warehouse ~n:3 ~seed:37 in
  let src = Warehouse.source wh view_name in
  let batch = mixed_batch rng src ~day:3 in
  Warehouse.queue_changes wh ~view:view_name batch;
  let original = Warehouse.peek_pending wh ~view:view_name in
  (* workers < 1 makes Pipeline.plan raise after the queues were drained:
     nothing published, so everything must come back. *)
  (match Warehouse.refresh ~workers:0 wh with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "entire batch requeued" true
    (List.equal
       (fun a b ->
         match (a, b) with
         | Delta.Insert x, Delta.Insert y | Delta.Delete x, Delta.Delete y ->
           Tuple.equal x y
         | Delta.Update (o, n), Delta.Update (o', n') ->
           Tuple.equal o o' && Tuple.equal n n'
         | _ -> false)
       original
       (Warehouse.peek_pending wh ~view:view_name));
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let got = Warehouse.read_view wh s view_name in
  Warehouse.end_session wh s;
  Alcotest.(check bool) "converged" true
    (views_equal got (Warehouse.expected_view wh view_name))

(* ------------------------------------------------------------------ *)
(* Delta float-residue regression *)

let float_schema =
  Schema.make [ Schema.attr "grp" (Dtype.Str 4); Schema.attr "x" Dtype.Float ]

let float_view =
  View_def.make ~name:"F" ~source:float_schema ~group_by:[ "grp" ]
    ~aggregates:[ ("total", View_def.Sum "x") ]
    ()

let frow g x = Tuple.make float_schema [ Value.Str g; Value.Float x ]

let test_delta_float_residue_dropped () =
  (* (0.1 +. 0.2) -. 0.3 <> 0. in floats; the group's rows cancel exactly
     (count 0), so the residue must be cleaned and the group dropped. *)
  let batch =
    [ Delta.Insert (frow "a" 0.1); Delta.Insert (frow "a" 0.2);
      Delta.Insert (frow "a" 0.3); Delta.Delete (frow "a" 0.1);
      Delta.Delete (frow "a" 0.2); Delta.Delete (frow "a" 0.3) ]
  in
  check Alcotest.int "phantom group dropped" 0
    (List.length (Delta.net_group_deltas float_view batch))

let test_float_residue_refresh_is_noop () =
  (* The same cancelling batch through a full refresh, against both an
     absent group ("a") and a present one ("b"): neither may pick up
     epsilon, and the refreshed view must equal the recomputation
     byte-for-byte. *)
  let wh = Warehouse.create [ float_view ] in
  Warehouse.queue_changes wh ~view:"F" [ Delta.Insert (frow "b" 0.3) ];
  ignore (Warehouse.refresh wh);
  let cancelling g =
    [ Delta.Insert (frow g 0.1); Delta.Insert (frow g 0.2); Delta.Insert (frow g 0.3);
      Delta.Delete (frow g 0.1); Delta.Delete (frow g 0.2); Delta.Delete (frow g 0.3) ]
  in
  Warehouse.queue_changes wh ~view:"F" (cancelling "a" @ cancelling "b");
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let got = Warehouse.read_view wh s "F" in
  Warehouse.end_session wh s;
  Alcotest.(check bool) "byte-identical to recompute" true
    (views_equal got (Warehouse.expected_view wh "F"))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_partition_laws;
    Alcotest.test_case "secondary-index footprint forces partition merge" `Quick
      test_secondary_index_forces_merge;
    Alcotest.test_case "single-stripe round equals serial transaction" `Quick
      test_differential_single_stripe;
    Alcotest.test_case "multi-stripe round equals serial stripe replay" `Quick
      test_differential_multi_stripe;
    QCheck_alcotest.to_alcotest qcheck_pipelined_equals_serial;
    Alcotest.test_case "scheduled interleavings keep readers on the oracle" `Quick
      test_scheduled_interleavings;
    Alcotest.test_case "scheduled interleavings across workloads" `Quick
      test_scheduled_workloads;
    Alcotest.test_case "scheduled round is deterministic per seed" `Quick
      test_scheduled_deterministic;
    Alcotest.test_case "round-begin session survives a full round (n = k+1)" `Quick
      test_session_survives_round;
    Alcotest.test_case "crash sweep lands on a stripe boundary" `Quick
      test_crash_sweep_lands_on_stripe_boundary;
    Alcotest.test_case "one-stripe crash sweep over a heap-growing batch" `Quick
      test_one_stripe_sweep_grows_heap;
    Alcotest.test_case "abort/requeue sweep over every (phase, stripe)" `Quick
      test_abort_requeue_sweep;
    Alcotest.test_case "abort/requeue through real domains" `Quick
      test_abort_requeue_real_domains;
    Alcotest.test_case "plan failure requeues the entire batch" `Quick
      test_plan_failure_requeues_everything;
    Alcotest.test_case "float cancellation residue is dropped" `Quick
      test_delta_float_residue_dropped;
    Alcotest.test_case "cancelling float batch refreshes to a no-op" `Quick
      test_float_residue_refresh_is_noop;
  ]
