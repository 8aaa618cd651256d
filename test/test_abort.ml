(* Exception-at-every-step sweep: the in-process twin of the crash sweeps.

   A crash leaves a disk image for {!Vnl_core.Recovery.reopen} to repair;
   an exception raised inside the process (a failing stripe, an
   inconsistent batch, bad DDL) must instead be repaired on the spot by
   the §7 no-log abort.  After every failure point swept here the
   warehouse must be exactly in its pre-state — queues, version state,
   catalog generation, what pinned and fresh sessions read, and what a
   reopen of the disk finds — and must accept the next refresh and the
   next evolution.

   - Refresh: a raise from each phase of a one-stripe round and of a
     two-stripe round whose every stripe re-inserts a retired group (fold,
     apply, token), and from classification (a negative delta for an
     absent group), over a two-view warehouse.
   - A hand-driven drain (what [vnl shell]'s [.maintain] does): a batch
     taken off the queue, applied in a transaction and aborted goes back
     with [Warehouse.requeue], and the next refresh converges.
   - Evolve: unknown views, a key column, a duplicate index name, a
     duplicate view, and a bad item placed after a good one in the same
     evolution list. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Schema = Vnl_relation.Schema
module Dtype = Vnl_relation.Dtype
module Disk = Vnl_storage.Disk
module Database = Vnl_query.Database
module Twovnl = Vnl_core.Twovnl
module Recovery = Vnl_core.Recovery
module Pipeline = Vnl_core.Pipeline
module View_def = Vnl_warehouse.View_def
module Delta = Vnl_warehouse.Delta
module Warehouse = Vnl_warehouse.Warehouse
module Summary = Vnl_warehouse.Summary
module Sales_gen = Vnl_workload.Sales_gen
module Xorshift = Vnl_util.Xorshift
module Sched = Vnl_util.Sched
module Table = Vnl_query.Table
module Schema_ext = Vnl_core.Schema_ext

let check = Alcotest.check

let daily = Sales_gen.daily_sales_view ()

let product_totals =
  View_def.make ~name:"ProductTotals" ~source:Sales_gen.sales_schema
    ~group_by:[ "product_line" ]
    ~aggregates:[ ("total_sales", View_def.Sum "amount") ]
    ()

let views = [ daily; product_totals ]

let sorted = List.sort Tuple.compare

let rows_equal a b = List.equal Tuple.equal (sorted a) (sorted b)

let changes_equal a b =
  List.equal
    (fun x y ->
      match (x, y) with
      | Delta.Insert r, Delta.Insert r' | Delta.Delete r, Delta.Delete r' -> Tuple.equal r r'
      | Delta.Update (o, n), Delta.Update (o', n') -> Tuple.equal o o' && Tuple.equal n n'
      | _ -> false)
    a b

let feed wh changes =
  List.iter (fun def -> Warehouse.queue_changes wh ~view:(View_def.name def) changes) views

let loaded ?n ~seed () =
  let wh = Warehouse.create ?n ~pool_capacity:64 views in
  let rng = Xorshift.create seed in
  feed wh (Sales_gen.initial_load rng ~days:3 ~sales_per_day:40);
  ignore (Warehouse.refresh wh);
  (wh, rng)

let read wh name =
  let s = Warehouse.begin_session wh in
  let rows = Warehouse.read_view wh s name in
  Warehouse.end_session wh s;
  rows

let maintenance_active wh =
  Vnl_core.Version_state.maintenance_active (Twovnl.version_state (Warehouse.vnl wh))

(* Every view matches its recomputation from the simulated source. *)
let check_converged wh what =
  List.iter
    (fun def ->
      let name = View_def.name def in
      if not (rows_equal (read wh name) (Warehouse.expected_view wh name)) then
        Alcotest.failf "%s: %s diverged from its recomputation" what name)
    (Warehouse.views wh)

let physical_records wh =
  List.map
    (fun def ->
      Table.tuple_count (Twovnl.table (Twovnl.handle_exn (Warehouse.vnl wh) (View_def.name def))))
    views

(* The post-failure contract of a refresh: queues exactly as before, the
   version state untouched and idle, every physical record still there (an
   insert over a logical delete reverts to the delete, not to nothing),
   and the next refresh converges. *)
let check_refresh_failure wh ~what ~queued ~vn attempt =
  let records = physical_records wh in
  (match attempt () with
  | _ -> Alcotest.failf "%s: the refresh did not fail" what
  | exception _ -> ());
  List.iter
    (fun (name, before) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s queue restored in order" what name)
        true
        (changes_equal before (Warehouse.peek_pending wh ~view:name)))
    queued;
  check Alcotest.int (what ^ ": no VN published") vn (Twovnl.current_vn (Warehouse.vnl wh));
  Alcotest.(check bool) (what ^ ": maintenance idle") false (maintenance_active wh);
  Alcotest.(check (list int)) (what ^ ": physical records restored") records (physical_records wh)

let snapshot_queues wh =
  List.map
    (fun def ->
      let name = View_def.name def in
      (name, Warehouse.peek_pending wh ~view:name))
    (Warehouse.views wh)

exception Injected of Pipeline.phase

(* Retire [k] DailySales groups to zero support in one refresh; returns
   their source rows, whose re-insert is then an insert over a logical
   delete. *)
let retire_groups wh ~k =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun row ->
      let key = View_def.group_key daily row in
      if Hashtbl.mem groups key || Hashtbl.length groups < k then
        Hashtbl.replace groups key
          (row :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    (Vnl_warehouse.Source.rows (Warehouse.source wh "DailySales"));
  let rows = Hashtbl.fold (fun _ rows acc -> rows @ acc) groups [] in
  feed wh (List.map (fun r -> Delta.Delete r) rows);
  ignore (Warehouse.refresh wh);
  (Hashtbl.fold (fun key _ acc -> key :: acc) groups [], rows)

(* The two-stripe input runs its round under the deterministic scheduler
   and holds stripe 0's token hook until stripe 1 has applied, so a token
   failure reverts both stripes' writes — and with them both stripes'
   inserts over deletes, which the abort tells apart from fresh inserts
   through the transaction's one over-delete record. *)
let test_refresh_phase_sweep () =
  List.iter
    (fun (workers, phase) ->
      let wh, rng = loaded ~n:(workers + 1) ~seed:23 () in
      let retired, rows = if workers > 1 then retire_groups wh ~k:8 else ([], []) in
      let src = Warehouse.source wh "DailySales" in
      feed wh (Sales_gen.gen_batch rng src ~day:3 ~inserts:30 ~updates:6 ~deletes:4);
      feed wh (List.map (fun r -> Delta.Insert r) rows);
      let queued = snapshot_queues wh in
      let vn = Twovnl.current_vn (Warehouse.vnl wh) in
      let h = Twovnl.handle_exn (Warehouse.vnl wh) "DailySales" in
      (* Stripe [i]'s re-inserted groups, filled in by [run] below. *)
      let reinserted = Array.make workers [] in
      let applied i =
        List.for_all
          (fun key ->
            match Table.find_by_key (Twovnl.table h) key with
            | Some (_, tuple) ->
              Schema_ext.tuple_vn (Twovnl.ext h) ~slot:1 tuple = Some (vn + 1 + i)
            | None -> false)
          reinserted.(i)
      in
      let on_phase p ~stripe =
        if p = phase then begin
          if p = `Token && stripe = 0 then
            for i = 1 to workers - 1 do
              while not (applied i) do
                Sched.yield ()
              done
            done;
          raise (Injected p)
        end
      in
      let run plan =
        List.iteri
          (fun i (_, per_table) ->
            let keys = Option.value ~default:[] (List.assoc_opt "DailySales" per_table) in
            (* A retired group's only change is its rows' re-insert. *)
            reinserted.(i) <- List.filter (fun key -> List.mem key retired) keys)
          (Pipeline.stripe_keys plan);
        check Alcotest.int "stripes" workers (Pipeline.stripe_count plan);
        Array.iteri
          (fun i keys ->
            Alcotest.(check bool)
              (Printf.sprintf "stripe %d re-inserts a retired group" i)
              true (keys <> []))
          reinserted;
        ignore (Sched.run ~seed:5 (Pipeline.tasks plan));
        Pipeline.finish plan
      in
      let what =
        Printf.sprintf "%s, %d stripe(s)"
          (match phase with `Fold -> "fold" | `Apply -> "apply" | `Token -> "token")
          workers
      in
      let run = if workers > 1 then Some run else None in
      check_refresh_failure wh ~what ~queued ~vn (fun () ->
          Warehouse.refresh ~workers ~on_phase ?run wh);
      ignore (Warehouse.refresh ~workers wh);
      check_converged wh what)
    (List.concat_map
       (fun workers -> List.map (fun phase -> (workers, phase)) [ `Fold; `Apply; `Token ])
       [ 1; 2 ])

(* A negative delta for a group the view does not hold: the source still
   has the group's rows, but a hand-driven transaction removed the group
   from the view, so retiring one of its rows cannot be classified. *)
let test_refresh_classification_failure () =
  let wh, rng = loaded ~seed:31 () in
  let victim = List.hd (Vnl_warehouse.Source.rows (Warehouse.source wh "DailySales")) in
  let key = View_def.group_key daily victim in
  let target = View_def.target_schema daily in
  let group =
    List.find (fun t -> List.equal Value.equal (Tuple.key_of target t) key) (read wh "DailySales")
  in
  let db = Warehouse.database wh and vnl = Warehouse.vnl wh in
  Recovery.run_maintenance db vnl (fun txn ->
      Alcotest.(check bool) "group removed" true
        (Twovnl.Txn.delete_by_key txn ~table:"DailySales" ~key));
  let src = Warehouse.source wh "DailySales" in
  feed wh (Sales_gen.gen_batch rng src ~day:3 ~inserts:20 ~updates:0 ~deletes:0);
  feed wh [ Delta.Delete victim ];
  let queued = snapshot_queues wh in
  let vn = Twovnl.current_vn vnl in
  check_refresh_failure wh ~what:"classification" ~queued ~vn (fun () -> Warehouse.refresh wh);
  (* Put the group back as it was, and the queued batch applies cleanly. *)
  Recovery.run_maintenance db vnl (fun txn ->
      Twovnl.Txn.insert txn ~table:"DailySales" (Tuple.values group));
  ignore (Warehouse.refresh wh);
  check_converged wh "classification"

(* [take_pending] drains a queue whose changes the source already holds,
   so an aborted hand-driven transaction must requeue what it took: once
   after an apply that succeeded (the shell's [.abort]), once after an
   apply that raised on a group a hand-driven transaction removed from the
   view (the shell's abort-on-raise).  Without the requeue the view would
   miss both batches for good. *)
let test_hand_driven_abort_requeues () =
  let wh, rng = loaded ~seed:43 () in
  let db = Warehouse.database wh and vnl = Warehouse.vnl wh in
  let src = Warehouse.source wh "DailySales" in
  let take_apply_abort what ~raises =
    let taken = Warehouse.take_pending wh ~view:"DailySales" in
    let txn = Twovnl.Txn.begin_ vnl in
    (match Summary.apply_batch txn daily taken with
    | _ -> if raises then Alcotest.failf "%s: the apply did not raise" what
    | exception e -> if not raises then raise e);
    ignore (Twovnl.Txn.abort txn);
    Warehouse.requeue wh ~view:"DailySales" taken;
    Alcotest.(check bool) (what ^ ": queue restored in order") true
      (changes_equal taken (Warehouse.peek_pending wh ~view:"DailySales"))
  in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.gen_batch rng src ~day:3 ~inserts:20 ~updates:4 ~deletes:2);
  take_apply_abort "abort after apply" ~raises:false;
  ignore (Warehouse.refresh wh);
  check_converged wh "abort after apply";
  let victim = List.hd (Vnl_warehouse.Source.rows src) in
  let key = View_def.group_key daily victim in
  let target = View_def.target_schema daily in
  let group =
    List.find (fun t -> List.equal Value.equal (Tuple.key_of target t) key) (read wh "DailySales")
  in
  Recovery.run_maintenance db vnl (fun txn ->
      Alcotest.(check bool) "group removed" true
        (Twovnl.Txn.delete_by_key txn ~table:"DailySales" ~key));
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.gen_batch rng src ~day:4 ~inserts:20 ~updates:0 ~deletes:0
    @ [ Delta.Delete victim ]);
  take_apply_abort "abort after a raising apply" ~raises:true;
  Recovery.run_maintenance db vnl (fun txn ->
      Twovnl.Txn.insert txn ~table:"DailySales" (Tuple.values group));
  ignore (Warehouse.refresh wh);
  check_converged wh "abort after a raising apply"

(* ---------- evolve ---------- *)

let region = Schema.attr "region" (Dtype.Str 8)

let by_city = Warehouse.Add_index { view = "DailySales"; index = "by_city"; attrs = [ "city" ] }

let unknown_view = function Failure _ -> true | _ -> false

let rejected = function Invalid_argument _ -> true | _ -> false

(* Each case: evolutions committed first (the pre-state), the failing
   evolution list, and the exception it must raise. *)
let evolve_cases =
  [
    ( "add_column on no view",
      [],
      [ Warehouse.Add_column { view = "Nope"; attr = region; default = Value.Str "west" } ],
      unknown_view );
    ( "add_index on no view",
      [],
      [ Warehouse.Add_index { view = "Nope"; index = "by_city"; attrs = [ "city" ] } ],
      unknown_view );
    ( "key column rejected",
      [],
      [
        Warehouse.Add_column
          { view = "DailySales"; attr = { region with key = true }; default = Value.Str "west" };
      ],
      rejected );
    ("duplicate index name", [ by_city ], [ by_city ], rejected);
    ("duplicate view", [], [ Warehouse.Add_view { def = product_totals; n = None } ], rejected);
    ( "bad item after good one",
      [],
      [
        Warehouse.Add_column { view = "DailySales"; attr = region; default = Value.Str "west" };
        Warehouse.Add_index { view = "Nope"; index = "by_city"; attrs = [ "city" ] };
      ],
      unknown_view );
  ]

let test_evolve_failure (what, prior, bad, expected) () =
  let wh, rng = loaded ~seed:47 () in
  if prior <> [] then Warehouse.evolve wh prior;
  let db = Warehouse.database wh and vnl = Warehouse.vnl wh in
  let gen = Warehouse.catalog_generation wh in
  let vn = Twovnl.current_vn vnl in
  let names = List.map View_def.name (Warehouse.views wh) in
  let pre = List.map (fun name -> (name, read wh name)) names in
  let pinned = Warehouse.begin_session wh in
  (match Warehouse.evolve wh bad with
  | () -> Alcotest.failf "%s: the evolution did not fail" what
  | exception e ->
    if not (expected e) then
      Alcotest.failf "%s: raised %s, not its own error" what (Printexc.to_string e));
  check Alcotest.int (what ^ ": generation unchanged") gen (Warehouse.catalog_generation wh);
  check Alcotest.int (what ^ ": no VN published") vn (Twovnl.current_vn vnl);
  Alcotest.(check bool) (what ^ ": maintenance idle") false (maintenance_active wh);
  let fresh = Warehouse.begin_session wh in
  List.iter
    (fun (name, rows) ->
      List.iter
        (fun (who, s) ->
          if not (rows_equal rows (Warehouse.read_view wh s name)) then
            Alcotest.failf "%s: %s session reads a changed %s" what who name)
        [ ("pinned", pinned); ("fresh", fresh) ])
    pre;
  Warehouse.end_session wh pinned;
  Warehouse.end_session wh fresh;
  (* The abort is durable: a reopen finds a clean image at the
     pre-evolution generation. *)
  let vnl2, outcome =
    Recovery.reopen ~pool_capacity:64 (Disk.clone (Database.disk db))
      ~tables:(List.map (fun def -> (View_def.name def, View_def.target_schema def)) views)
  in
  Alcotest.(check bool) (what ^ ": reopen sees no interrupted maintenance") false
    outcome.Recovery.interrupted;
  check Alcotest.int (what ^ ": reopened generation") gen (Twovnl.catalog_generation vnl2);
  let s2 = Twovnl.Session.begin_ vnl2 in
  List.iter
    (fun (name, rows) ->
      if not (rows_equal rows (Twovnl.Session.read_table vnl2 s2 name)) then
        Alcotest.failf "%s: reopened %s differs from the pre-state" what name)
    pre;
  Twovnl.Session.end_ vnl2 s2;
  (* Maintenance goes on: a refresh, then an evolution. *)
  let src = Warehouse.source wh "DailySales" in
  feed wh (Sales_gen.gen_batch rng src ~day:3 ~inserts:20 ~updates:4 ~deletes:2);
  ignore (Warehouse.refresh wh);
  check_converged wh what;
  Warehouse.evolve wh
    [ Warehouse.Add_column { view = "DailySales"; attr = region; default = Value.Str "west" } ];
  check Alcotest.int (what ^ ": next evolution commits") (gen + 1)
    (Warehouse.catalog_generation wh);
  check_converged wh what

let suite =
  [
    Alcotest.test_case "refresh: raise at every phase" `Quick
      test_refresh_phase_sweep;
    Alcotest.test_case "refresh: raise in classify" `Quick
      test_refresh_classification_failure;
    Alcotest.test_case "hand-driven abort requeues the taken batch" `Quick
      test_hand_driven_abort_requeues;
  ]
  @ List.map
      (fun ((what, _, _, _) as case) ->
        Alcotest.test_case ("evolve: " ^ what) `Quick (test_evolve_failure case))
      evolve_cases
