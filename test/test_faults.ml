(* The §7 durability proof: crash-at-every-write-k sweep.

   A randomized maintenance batch runs under the crash-safe write ordering
   of {!Vnl_core.Recovery.run_maintenance} against a cloned disk image, with
   the disk armed to crash at the k-th physical write — for every k the
   protocol performs.  After each crash the database is reopened from the
   surviving platter image alone and repaired with the §7 no-log rollback;
   the recovered state must be logically identical to either the
   pre-transaction or the post-transaction state, never a mixture.  Torn
   variants (a random prefix of the crashing write applied) must be caught
   by the per-page checksum instead of being silently decoded. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Disk = Vnl_storage.Disk
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Twovnl = Vnl_core.Twovnl
module Recovery = Vnl_core.Recovery
module Batch = Vnl_core.Batch
module Xorshift = Vnl_util.Xorshift

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

(* Pre-transaction platter image: every group loaded for two days, saved,
   so the clone is a cleanly shut-down database. *)
let build_base () =
  let db = Database.create ~pool_capacity:4 () in
  let wh = Twovnl.init db in
  ignore (Twovnl.register_table wh ~name:table_name Fixtures.daily_sales);
  let rows =
    List.concat_map
      (fun g ->
        List.map
          (fun day -> Tuple.make Fixtures.daily_sales (key_of g ~day @ [ Value.Int 1000 ]))
          [ 13; 14 ])
      groups
  in
  Twovnl.load_initial wh table_name rows;
  Database.save db;
  Database.disk db

(* A randomized batch with disjoint per-key roles so any grouping order is
   legal: some existing groups retired, others corrected (1-3 updates
   each), fresh day-20 groups inserted (some then updated, one inserted and
   retired again in the same batch). *)
let gen_ops seed =
  let rng = Xorshift.create seed in
  let pool = Array.of_list groups in
  Xorshift.shuffle rng pool;
  let ops = ref [] in
  let add op = ops := op :: !ops in
  (* Retire two day-13 groups. *)
  for i = 0 to 1 do
    add (Batch.Delete (key_of pool.(i) ~day:13))
  done;
  (* Correct a few day-14 groups. *)
  for i = 2 to 5 do
    for _ = 1 to 1 + Xorshift.int rng 3 do
      add (Batch.Update (key_of pool.(i) ~day:14, [ (4, Value.Int (Xorshift.int rng 50_000)) ]))
    done
  done;
  (* Fresh day-20 groups; some see a follow-up correction. *)
  for i = 0 to 4 do
    let key = key_of pool.(i) ~day:20 in
    add (Batch.Insert (Tuple.make Fixtures.daily_sales (key @ [ Value.Int (Xorshift.int rng 9_000) ])));
    if Xorshift.bool rng then
      add (Batch.Update (key, [ (4, Value.Int (Xorshift.int rng 9_000)) ]))
  done;
  (* Insert-then-retire in one batch: nets to nothing. *)
  let key = key_of pool.(5) ~day:20 in
  add (Batch.Insert (Tuple.make Fixtures.daily_sales (key @ [ Value.Int 7 ])));
  add (Batch.Delete key);
  List.rev !ops

let visible vnl =
  let s = Twovnl.Session.begin_ vnl in
  let rows = Twovnl.Session.read_table vnl s table_name in
  Twovnl.Session.end_ vnl s;
  List.sort Tuple.compare rows

let reopen disk = Recovery.reopen ~pool_capacity:4 disk ~tables

let run_refresh vnl ops =
  let db = Twovnl.database vnl in
  Recovery.run_maintenance db vnl (fun txn ->
      ignore (Twovnl.Txn.apply_batch txn ~table:table_name ops))

let same = List.equal Tuple.equal

(* The refresh's write sequence must have the §7 ladder's shape. *)
let ladder base ops =
  Fixtures.check_ladder ~ctx:"refresh" base
    ~setup:(fun d -> fst (reopen d))
    ~run:(fun vnl -> run_refresh vnl ops)

(* Run the whole sweep for one seed; returns (write points, #pre, #post,
   #torn detected, #torn recovered). *)
let sweep ?(tear = true) seed =
  let base = build_base () in
  let ops = gen_ops seed in
  (* Reference states and write count from a fault-free dry run. *)
  let pre, post, writes =
    let d = Disk.clone base in
    let vnl, out = reopen d in
    Alcotest.(check bool) "clean image needs no repair" false out.Recovery.interrupted;
    let pre = visible vnl in
    Disk.reset_stats d;
    run_refresh vnl ops;
    let w = (Disk.stats d).Disk.writes in
    (pre, visible vnl, w)
  in
  Alcotest.(check bool) "batch changed the state" false (same pre post);
  check Alcotest.int "the ladder's writes" (ladder base ops).Fixtures.writes writes;
  let n_pre = ref 0 and n_post = ref 0 and torn_detected = ref 0 and torn_ok = ref 0 in
  let rng = Xorshift.create (seed * 7919) in
  (* Clean crash point: either write k never reaches the platter
     (prefix = 0) or it completes and the crash follows (prefix =
     page_size).  Crashing after the final write exercises the
     fully-committed image. *)
  let clean_crash k prefix =
    let d = Disk.clone base in
    let vnl, _ = reopen d in
    Disk.set_faults d { Disk.no_faults with crash_at_write = Some k; torn_prefix = prefix };
    (try
       run_refresh vnl ops;
       Alcotest.failf "crash point %d did not fire" k
     with Disk.Crash _ -> ());
    Disk.clear_faults d;
    let vnl2, _ = reopen d in
    let state = visible vnl2 in
    if same state pre then incr n_pre
    else if same state post then incr n_post
    else Alcotest.failf "crash at write %d recovered to a state that is neither pre nor post" k;
    (* The recovered warehouse accepts new maintenance. *)
    if same state pre then begin
      run_refresh vnl2 ops;
      Alcotest.(check bool) (Printf.sprintf "re-running after crash %d reaches post" k) true
        (same (visible vnl2) post)
    end
  in
  for k = 1 to writes do
    clean_crash k 0;
    clean_crash k (Disk.page_size base);
    (* Torn variant: a random proper prefix of the crashing write lands.
       The checksum must catch it on reopen — or, if the prefix left the
       page byte-identical, recovery proceeds and must land on pre/post. *)
    if tear then begin
      let d = Disk.clone base in
      let vnl, _ = reopen d in
      let prefix = 1 + Xorshift.int rng (Disk.page_size d - 1) in
      Disk.set_faults d { Disk.no_faults with crash_at_write = Some k; torn_prefix = prefix };
      (try
         run_refresh vnl ops;
         Alcotest.failf "torn crash point %d did not fire" k
       with Disk.Crash _ -> ());
      Disk.clear_faults d;
      match reopen d with
      | exception Disk.Corrupt_page _ -> incr torn_detected
      | vnl2, _ ->
        let state = visible vnl2 in
        if same state pre || same state post then incr torn_ok
        else Alcotest.failf "torn write at %d silently decoded into a wrong state" k
    end
  done;
  (writes, !n_pre, !n_post, !torn_detected, !torn_ok)

let test_sweep () =
  let writes, n_pre, n_post, torn_detected, _torn_ok = sweep 42 in
  check Alcotest.int "every crash point accounted for" (2 * writes) (n_pre + n_post);
  Alcotest.(check bool) "early crash points recover to pre" true (n_pre > 0);
  Alcotest.(check bool) "the final crash point recovers to post" true (n_post > 0);
  Alcotest.(check bool) "some torn write was detected by checksum" true (torn_detected > 0)

(* Reader-session consistency across the crash: a session opened on the
   recovered database sees exactly one committed state, and queries through
   the SQL reader rewrite agree with the engine-level read. *)
let test_reader_consistency_after_recovery () =
  let base = build_base () in
  let ops = gen_ops 7 in
  let first_data = (ladder base ops).Fixtures.first_data in
  let d = Disk.clone base in
  let vnl, _ = reopen d in
  let pre = visible vnl in
  (* Crash on the first data write: the flag is durable, the batch not. *)
  Disk.set_faults d { Disk.no_faults with crash_at_write = Some first_data };
  (try run_refresh vnl ops with Disk.Crash _ -> ());
  Disk.clear_faults d;
  let vnl2, out = reopen d in
  Alcotest.(check bool) "recovery saw the interruption" true
    (out.Recovery.interrupted || same (visible vnl2) pre);
  let s = Twovnl.Session.begin_ vnl2 in
  let rows = Twovnl.Session.read_table vnl2 s table_name in
  let r =
    Twovnl.Session.query vnl2 s (Printf.sprintf "SELECT COUNT(*) FROM %s" table_name)
  in
  Twovnl.Session.end_ vnl2 s;
  match r.Vnl_query.Executor.rows with
  | [ [ Value.Int n ] ] -> check Alcotest.int "SQL and engine reads agree" (List.length rows) n
  | _ -> Alcotest.fail "count query shape"

(* Injected read failures surface as Disk.Crash, not as wrong answers. *)
let test_read_failure_surfaces () =
  let base = build_base () in
  let d = Disk.clone base in
  Disk.set_faults d { Disk.no_faults with fail_read_pids = [ 1 ] };
  Alcotest.(check bool) "reopen over failing media raises" true
    (try
       ignore (reopen d);
       false
     with Disk.Crash _ -> true);
  Disk.clear_faults d;
  ignore (reopen d)

(* Property: the sweep invariant holds across randomized batches.  Clean
   crashes only (torn handled in the fixed-seed sweep) to keep the runtime
   in check. *)
let qcheck_sweep =
  QCheck.Test.make ~name:"crash sweep recovers to pre or post for random batches" ~count:4
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      let writes, n_pre, n_post, _, _ = sweep ~tear:false seed in
      (2 * writes) = n_pre + n_post && n_post > 0)

let suite =
  [
    Alcotest.test_case "crash-at-every-write-k sweep (§7)" `Quick test_sweep;
    Alcotest.test_case "reader consistency after recovery" `Quick
      test_reader_consistency_after_recovery;
    Alcotest.test_case "injected read failure surfaces" `Quick test_read_failure_surfaces;
    QCheck_alcotest.to_alcotest qcheck_sweep;
  ]
