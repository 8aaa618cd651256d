(* Free-running domain stress over the parallel read path.

   Where test_parallel replays chosen interleavings, these tests let real
   OCaml 5 domains race: QCheck properties over the concurrent buffer
   pool, a differential stress run checking every reader view against the
   full-history {!Oracle} at the session's version while maintenance
   applies random batches, unique-key probes while the maintainer grows
   the key index, the span-ring and counter regressions for
   {!Vnl_obs.Obs}, and a disk crash fired mid-refresh under live readers.

   Knobs (for the CI concurrency job):
     VNL_STRESS_DOMAINS  reader/worker domain count   (default 2)
     VNL_STRESS_REPS     differential and probe stress repeats  (default 3) *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Dtype = Vnl_relation.Dtype
module Schema = Vnl_relation.Schema
module Table = Vnl_query.Table
module Disk = Vnl_storage.Disk
module Buffer_pool = Vnl_storage.Buffer_pool
module Database = Vnl_query.Database
module Twovnl = Vnl_core.Twovnl
module Recovery = Vnl_core.Recovery
module Batch = Vnl_core.Batch
module Obs = Vnl_obs.Obs
module Xorshift = Vnl_util.Xorshift
module Domain_pool = Vnl_util.Domain_pool

let check = Alcotest.check

(* Strict: a set-but-invalid knob is a configuration mistake (a typo'd CI
   matrix entry) and must fail loudly, not silently run at the default. *)
let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some raw -> (
    match int_of_string_opt (String.trim raw) with
    | Some n when n > 0 -> n
    | Some n ->
      Printf.ksprintf failwith "%s=%d: must be a positive integer" name n
    | None ->
      Printf.ksprintf failwith "%s=%S: not an integer (expected a positive count)" name raw)

let stress_domains = env_int "VNL_STRESS_DOMAINS" 2

let stress_reps = env_int "VNL_STRESS_REPS" 3

(* --- buffer pool under concurrent pin/mutate/flush -------------------- *)

(* Each domain performs a seed-derived stream of reads, read-modify-write
   increments, and flushes against a pool too small for the page set.
   Exclusive frame latches make the increments atomic, so no update may be
   lost; the counters must stay consistent; and the small capacity must
   force real evictions, i.e. the values must round-trip through disk. *)
let pool_scenario seed =
  let domains = 2 + (seed mod (max 1 (stress_domains - 1))) in
  let pages = 12 and capacity = 6 and ops = 400 in
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~capacity disk in
  let pids = Array.init pages (fun _ -> Buffer_pool.alloc_page pool) in
  Buffer_pool.flush_all pool;
  let counts =
    Domain_pool.run ~domains (fun ~start rank ->
        start ();
        let rng = Xorshift.create ((seed * 31) + rank) in
        let incremented = ref 0 in
        for i = 1 to ops do
          let pid = pids.(Xorshift.int rng pages) in
          if Xorshift.chance rng 0.4 then begin
            Buffer_pool.with_page_mut pool pid (fun img ->
                Bytes.set_int32_be img 0 (Int32.add (Bytes.get_int32_be img 0) 1l));
            incr incremented
          end
          else
            ignore (Buffer_pool.with_page pool pid (fun img -> Bytes.get_int32_be img 0));
          if i mod 97 = 0 then Buffer_pool.flush_all pool
        done;
        !incremented)
  in
  let total_incr = Array.fold_left ( + ) 0 counts in
  let stored =
    Array.fold_left
      (fun acc pid ->
        acc + Int32.to_int (Buffer_pool.with_page pool pid (fun img -> Bytes.get_int32_be img 0)))
      0 pids
  in
  let s = Buffer_pool.stats pool in
  if stored <> total_incr then
    QCheck.Test.fail_reportf "lost updates: %d increments, %d stored" total_incr stored;
  if s.Buffer_pool.hits + s.Buffer_pool.misses <> s.Buffer_pool.logical_reads then
    QCheck.Test.fail_reportf "counter drift: %d hits + %d misses <> %d reads"
      s.Buffer_pool.hits s.Buffer_pool.misses s.Buffer_pool.logical_reads;
  if s.Buffer_pool.evictions = 0 then
    QCheck.Test.fail_reportf "capacity %d over %d pages never evicted" capacity pages;
  (* The platter agrees after a final flush: write-backs were not torn. *)
  Buffer_pool.flush_all pool;
  let on_disk =
    Array.fold_left
      (fun acc pid -> acc + Int32.to_int (Bytes.get_int32_be (Disk.read disk pid) 0))
      0 pids
  in
  if on_disk <> total_incr then
    QCheck.Test.fail_reportf "disk image disagrees: %d increments, %d on platter" total_incr
      on_disk;
  true

let qcheck_pool_concurrent =
  QCheck.Test.make ~name:"buffer pool: no lost updates under concurrent domains" ~count:6
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    pool_scenario

(* --- differential stress: readers vs maintenance ---------------------- *)

let table_name = "DailySales"

let tables = [ (table_name, Fixtures.daily_sales) ]

let groups =
  [
    ("San Jose", "CA", "golf equip");
    ("Berkeley", "CA", "racquetball");
    ("Novato", "CA", "rollerblades");
    ("Fresno", "CA", "tennis");
    ("Reno", "NV", "golf equip");
    ("Tahoe", "NV", "skiing");
    ("Seattle", "WA", "camping");
    ("Spokane", "WA", "running");
  ]

let key_of (city, state, pl) ~day =
  [ Value.Str city; Value.Str state; Value.Str pl; Value.date_of_mdy 10 day 96 ]

let row_of key sales = Tuple.make Fixtures.daily_sales (key @ [ Value.Int sales ])

let initial_rows () =
  List.concat_map
    (fun g -> List.map (fun day -> row_of (key_of g ~day) 1000) [ 13; 14 ])
    groups

(* Disjoint per-key roles per batch, tracked against a live-key set (same
   scheme as test_parallel.gen_batches, maintainer-side only). *)
let gen_batch rng ~live ~fresh_day =
  let pool = Array.of_list !live in
  Xorshift.shuffle rng pool;
  let n_upd = min (Array.length pool) (2 + Xorshift.int rng 4) in
  let n_del = min (Array.length pool - n_upd) (Xorshift.int rng 2) in
  let ops = ref [] in
  for i = 0 to n_upd - 1 do
    ops := Batch.Update (pool.(i), [ (4, Value.Int (Xorshift.int rng 50_000)) ]) :: !ops
  done;
  for i = n_upd to n_upd + n_del - 1 do
    ops := Batch.Delete pool.(i) :: !ops;
    live := List.filter (fun k -> k <> pool.(i)) !live
  done;
  let day = !fresh_day in
  incr fresh_day;
  List.iter
    (fun g ->
      if Xorshift.chance rng 0.4 then begin
        let key = key_of g ~day in
        ops := Batch.Insert (row_of key (Xorshift.int rng 9_000)) :: !ops;
        live := key :: !live
      end)
    groups;
  List.rev !ops

let oracle_op = function
  | Batch.Insert t -> Oracle.Ins t
  | Batch.Update (k, a) -> Oracle.Upd (k, a)
  | Batch.Delete k -> Oracle.Del k

(* One stress round: [readers] domains re-validating their sessions against
   the oracle while the maintenance domain commits [refreshes] random
   batches.  The oracle is guarded by a test-side mutex (it is shared test
   state, not part of the system under test); each transaction is recorded
   before it begins so any sessionVN a reader can hold is already in
   history. *)
let stress_round ~readers ~refreshes seed =
  let db = Database.create ~pool_capacity:64 () in
  let vnl = Twovnl.init db in
  ignore (Twovnl.register_table vnl ~name:table_name Fixtures.daily_sales);
  Twovnl.load_initial vnl table_name (initial_rows ());
  let oracle = Oracle.create Fixtures.daily_sales in
  Oracle.apply_txn oracle ~vn:1 (List.map (fun t -> Oracle.Ins t) (initial_rows ()));
  let oracle_mu = Mutex.create () in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let failure_note = Atomic.make "" in
  let checks = Atomic.make 0 in
  let results =
    Domain_pool.run ~domains:(readers + 1) (fun ~start rank ->
        start ();
        if rank = 0 then begin
          let rng = Xorshift.create seed in
          let live =
            ref (List.concat_map (fun g -> [ key_of g ~day:13; key_of g ~day:14 ]) groups)
          in
          let fresh_day = ref 20 in
          for _ = 1 to refreshes do
            let ops = gen_batch rng ~live ~fresh_day in
            let m = Twovnl.Txn.begin_ vnl in
            Mutex.protect oracle_mu (fun () ->
                Oracle.apply_txn oracle ~vn:(Twovnl.Txn.vn m) (List.map oracle_op ops));
            ignore (Twovnl.Txn.apply_batch m ~table:table_name ops);
            Twovnl.Txn.commit m;
            ignore (Twovnl.collect_garbage vnl)
          done;
          Atomic.set stop true;
          0
        end
        else begin
          let expired = ref 0 in
          let validated_read () =
            let s = Twovnl.Session.begin_ vnl in
            (try
               let rows = Twovnl.Session.read_table vnl s table_name in
               let expected =
                 Mutex.protect oracle_mu (fun () ->
                     Oracle.visible oracle ~vn:(Twovnl.Session.vn s))
               in
               Atomic.incr checks;
               if not (Oracle.equal_views rows expected) then begin
                 Atomic.incr failures;
                 Atomic.set failure_note
                   (Printf.sprintf "session at vn %d saw %d rows, oracle has %d"
                      (Twovnl.Session.vn s) (List.length rows) (List.length expected))
               end
             with Twovnl.Expired _ -> incr expired);
            Twovnl.Session.end_ vnl s
          in
          while not (Atomic.get stop) do
            validated_read ()
          done;
          (* One post-quiescence read per reader: with maintenance stopped a
             fresh session cannot expire, so every run validates at least
             [readers] full views even on a single core. *)
          validated_read ();
          !expired
        end)
  in
  ignore results;
  if Atomic.get failures > 0 then
    Alcotest.failf "seed %d: %d inconsistent reads (%s)" seed (Atomic.get failures)
      (Atomic.get failure_note);
  Alcotest.(check bool) "readers performed validated reads" true (Atomic.get checks > 0)

let test_differential_stress () =
  for rep = 1 to stress_reps do
    stress_round ~readers:stress_domains ~refreshes:12 (1000 + rep)
  done

(* --- unique-key probes under a writing maintainer -------------------- *)

(* Reader domains probe keys that were present before the round
   ({!Table.find_by_key}, the planner's unique-key probe) while the
   maintainer grows the table from 64 keys to over 4k — several doublings
   of the key index's bucket array — and re-points present keys.  Every
   probe must find its key, and the record it fetches must carry that key:
   a probe that catches a resize or a re-point half done sees a key vanish
   or land on the wrong record. *)
let probe_schema =
  Schema.make [ Schema.attr ~key:true "id" Dtype.Int; Schema.attr ~updatable:true "v" Dtype.Int ]

let probe_row id v = Tuple.make probe_schema [ Value.Int id; Value.Int v ]

let probe_round ~readers seed =
  let present = 64 and fresh = 4096 in
  let db = Database.create ~pool_capacity:256 () in
  let t = Database.create_table db "probe" probe_schema in
  for id = 0 to present - 1 do
    ignore (Table.insert t (probe_row id 0))
  done;
  let stop = Atomic.make false and warmed = Atomic.make 0 in
  let bad = Atomic.make None in
  ignore
    (Domain_pool.run ~domains:(readers + 1) (fun ~start rank ->
        start ();
        if rank = 0 then begin
          (* Every reader probes once before the first write, so the round
             overlaps the writes even on one core. *)
          while Atomic.get warmed < readers do
            Domain.cpu_relax ()
          done;
          let rng = Xorshift.create seed in
          for i = 1 to fresh do
            ignore (Table.insert t (probe_row (present + i) 0));
            (* Re-point: a second record with a present key, entered over
               the old entry.  Both records carry the key, so either rid is
               a right answer. *)
            if i mod 8 = 0 then
              ignore (Table.insert ~check:false t (probe_row (Xorshift.int rng present) i))
          done;
          Atomic.set stop true
        end
        else begin
          let rng = Xorshift.create ((seed * 31) + rank) in
          let probe () =
            let id = Xorshift.int rng present in
            match Table.find_by_key t [ Value.Int id ] with
            | Some (_, tuple) when Value.equal (Tuple.get tuple 0) (Value.Int id) -> ()
            | Some (_, tuple) ->
              let got = Value.to_string (Tuple.get tuple 0) in
              Atomic.set bad (Some (Printf.sprintf "key %d fetched %s" id got))
            | None -> Atomic.set bad (Some (Printf.sprintf "key %d not found" id))
          in
          probe ();
          Atomic.incr warmed;
          while not (Atomic.get stop) do
            probe ()
          done
        end));
  Atomic.get bad

(* All reps run before any verdict, so a failure reports how many reps
   caught it. *)
let test_probes_under_writes () =
  let failed = ref [] in
  for rep = 1 to stress_reps do
    Option.iter
      (fun note -> failed := (rep, note) :: !failed)
      (probe_round ~readers:stress_domains (2000 + rep))
  done;
  match List.rev !failed with
  | [] -> ()
  | (rep, note) :: _ ->
    Alcotest.failf "%d of %d reps saw a bad probe (first: rep %d, %s)" (List.length !failed)
      stress_reps rep note

(* --- Obs under domains: the span-ring race regression ------------------ *)

(* Before spans were domain-local, concurrent with_span calls raced on one
   shared ring and its cursor: entries were overwritten or lost and the
   merged view could tear.  Now every domain owns a ring, so with room for
   all spans none may be lost, the merged order is the begin order, and the
   racy counters must add up exactly. *)
let test_obs_domains () =
  let domains = max 2 stress_domains and per_domain = 100 in
  let saved = !Obs.enabled in
  Obs.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := saved;
      Obs.set_trace_capacity 256;
      Obs.reset ())
    (fun () ->
      Obs.set_trace_capacity (domains * per_domain);
      Obs.reset ();
      let counter = Obs.Registry.counter "stress.obs.ticks" in
      ignore
        (Domain_pool.run ~domains (fun ~start rank ->
             start ();
             for i = 1 to per_domain do
               Obs.with_span
                 (Printf.sprintf "stress.d%d" rank)
                 (fun () -> Obs.Counter.add counter 1);
               ignore i
             done));
      let spans = Obs.recent_spans () in
      check Alcotest.int "no span lost across domains" (domains * per_domain)
        (List.length spans);
      check Alcotest.int "no counter increment lost" (domains * per_domain)
        (Obs.Counter.get counter);
      let seqs = List.map (fun (s : Obs.Span.t) -> s.Obs.Span.seq) spans in
      Alcotest.(check bool) "merged spans come back in begin order" true
        (List.sort compare seqs = seqs);
      let distinct = List.sort_uniq compare seqs in
      check Alcotest.int "sequence numbers never collide" (List.length seqs)
        (List.length distinct))

(* --- crash mid-refresh with live readers ------------------------------- *)

(* The §7 story under parallelism: the platter dies partway through a
   maintenance flush while reader domains keep querying.  Readers must
   fail cleanly — session expiry or the injected Disk.Crash, never a
   Corrupt_page and never a malformed view — and after the dust settles
   the no-log repair must land the database on exactly pre or post. *)
let test_crash_under_readers () =
  let build_base () =
    let db = Database.create ~pool_capacity:4 () in
    let wh = Twovnl.init db in
    ignore (Twovnl.register_table wh ~name:table_name Fixtures.daily_sales);
    Twovnl.load_initial wh table_name (initial_rows ());
    Database.save db;
    Database.disk db
  in
  let visible vnl =
    let s = Twovnl.Session.begin_ vnl in
    let rows = Twovnl.Session.read_table vnl s table_name in
    Twovnl.Session.end_ vnl s;
    List.sort Tuple.compare rows
  in
  let base = build_base () in
  let rng = Xorshift.create 77 in
  let live = ref (List.concat_map (fun g -> [ key_of g ~day:13; key_of g ~day:14 ]) groups) in
  let ops = gen_batch rng ~live ~fresh_day:(ref 20) in
  let refresh vnl =
    ignore
      (Recovery.run_maintenance (Twovnl.database vnl) vnl (fun txn ->
           ignore (Twovnl.Txn.apply_batch txn ~table:table_name ops)))
  in
  (* Reference pre/post states from a fault-free twin. *)
  let pre, post =
    let d = Disk.clone base in
    let vnl, _ = Recovery.reopen ~pool_capacity:4 d ~tables in
    let pre = visible vnl in
    refresh vnl;
    (pre, visible vnl)
  in
  (* The crash point below: the refresh's first data write. *)
  let first_data =
    (Fixtures.check_ladder ~ctx:"refresh" base
       ~setup:(fun d -> fst (Recovery.reopen ~pool_capacity:4 d ~tables))
       ~run:refresh)
      .Fixtures.first_data
  in
  let d = Disk.clone base in
  let vnl, _ = Recovery.reopen ~pool_capacity:4 d ~tables in
  let stop = Atomic.make false in
  let bad = Atomic.make "" in
  let warmed = Atomic.make 0 in
  let results =
    Domain_pool.run ~domains:3 (fun ~start rank ->
        start ();
        if rank = 0 then begin
          (* Wait for each reader to serve once against the healthy disk, so
             "readers served during the refresh" cannot lose the race to the
             crash on a single core. *)
          while Atomic.get warmed < 2 do
            Domain.cpu_relax ()
          done;
          Disk.set_faults d { Disk.no_faults with crash_at_write = Some first_data };
          let crashed =
            try
              refresh vnl;
              false
            with Disk.Crash _ -> true
          in
          Atomic.set stop true;
          if crashed then 1 else 0
        end
        else begin
          let served = ref 0 in
          let serve () =
            let s = Twovnl.Session.begin_ vnl in
            (try
               let rows = Twovnl.Session.read_table vnl s table_name in
               (* A successful read must be a well-formed base view. *)
               List.iter
                 (fun t ->
                   if Tuple.arity t <> 5 then Atomic.set bad "malformed base tuple")
                 rows;
               incr served
             with
            | Twovnl.Expired _ | Disk.Crash _ -> ()
            | Disk.Corrupt_page _ -> Atomic.set bad "Corrupt_page leaked to a reader"
            | e -> Atomic.set bad (Printexc.to_string e));
            Twovnl.Session.end_ vnl s
          in
          serve ();
          Atomic.incr warmed;
          while not (Atomic.get stop) do
            serve ()
          done;
          !served
        end)
  in
  check Alcotest.int "the injected crash fired" 1 results.(0);
  check Alcotest.string "readers failed cleanly" "" (Atomic.get bad);
  Alcotest.(check bool) "readers served during the refresh" true
    (results.(1) + results.(2) > 0);
  (* Reopen and repair from the surviving platter alone. *)
  Disk.clear_faults d;
  let vnl2, _ = Recovery.reopen ~pool_capacity:4 d ~tables in
  let state = visible vnl2 in
  let same = List.equal Tuple.equal in
  Alcotest.(check bool) "recovered to exactly pre or post" true
    (same state pre || same state post)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_pool_concurrent;
    Alcotest.test_case "differential stress: readers match oracle" `Quick
      test_differential_stress;
    Alcotest.test_case "unique-key probes while the maintainer writes" `Quick
      test_probes_under_writes;
    Alcotest.test_case "obs: span ring and counters race-free on domains" `Quick
      test_obs_domains;
    Alcotest.test_case "crash mid-refresh under live readers" `Quick
      test_crash_under_readers;
  ]
