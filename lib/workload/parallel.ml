(* Parallel reader serving: 1 maintenance domain + N reader domains.

   The point of 2VNL (§1-§2) is that long reader sessions proceed
   concurrently with the maintenance transaction.  This scenario finally
   makes the concurrency real: reader sessions run on their own OCaml 5
   domains, scanning and drilling into the DailySales summary view through
   {!Vnl_core.Twovnl.Session} while one maintenance domain applies refresh
   batches through {!Vnl_core.Recovery.run_maintenance}.  Readers check
   the Example 2.1 consistency criterion on every query pair (the
   drill-down must sum to the city total — a torn or mixed-version read
   breaks it), so the scenario doubles as a correctness harness for the
   domain-safe read path. *)

module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Schema = Vnl_relation.Schema
module Dtype = Vnl_relation.Dtype
module Plan = Vnl_query.Plan
module Database = Vnl_query.Database
module Twovnl = Vnl_core.Twovnl
module Recovery = Vnl_core.Recovery
module Batch = Vnl_core.Batch
module Xorshift = Vnl_util.Xorshift
module Domain_pool = Vnl_util.Domain_pool

let view_name = "DailySales"

let daily_sales =
  Schema.make
    [
      Schema.attr ~key:true "city" (Dtype.Str 20);
      Schema.attr ~key:true "state" (Dtype.Str 2);
      Schema.attr ~key:true "product_line" (Dtype.Str 12);
      Schema.attr ~key:true "date" Dtype.Date;
      Schema.attr ~updatable:true "total_sales" Dtype.Int;
    ]

let groups_per_day = Array.length Sales_gen.cities * Array.length Sales_gen.product_lines

let group_key gid ~day =
  let city, state = Sales_gen.cities.(gid mod Array.length Sales_gen.cities) in
  let pl = Sales_gen.product_lines.(gid / Array.length Sales_gen.cities) in
  [ Value.Str city; Value.Str state; Value.Str pl; Sales_gen.date_of_day day ]

type config = {
  readers : int;  (** Reader domains (>= 1); one maintenance domain rides along. *)
  duration_s : float;  (** Measured wall-clock window. *)
  days : int;  (** Days of history loaded before the run. *)
  batch_size : int;  (** Logical ops per refresh batch. *)
  n : int;  (** Version slots per table: 2 = 2VNL. *)
  pool_capacity : int;
  queries_per_session : int;  (** Query pairs before the session is reopened. *)
  seed : int;
}

let default_config =
  {
    readers = 2;
    duration_s = 0.5;
    days = 4;
    batch_size = 120;
    n = 2;
    pool_capacity = 256;
    queries_per_session = 8;
    seed = 7;
  }

type report = {
  readers : int;
  elapsed_s : float;
  reader_queries : int;  (** Completed query pairs across all reader domains. *)
  per_reader : int array;  (** Query pairs completed by each reader domain. *)
  rows_scanned : int;  (** Tuples returned by full-view scans. *)
  sessions : int;  (** Reader sessions opened. *)
  expired : int;  (** Sessions ended early by version expiry. *)
  inconsistent : int;  (** Drill-downs that failed to sum to their total. *)
  refreshes : int;  (** Maintenance transactions committed. *)
  qps : float;  (** reader_queries / elapsed_s. *)
  latency : Vnl_util.Stats.summary;
      (** Wall-clock per-query-pair latency in milliseconds, pooled over
          all reader domains — the tail (p99) is where reader-side lock
          convoys show up long before mean qps moves. *)
}

(* A warehouse with [days] of history, built and loaded single-domain. *)
let build ~config =
  let db = Database.create ~pool_capacity:config.pool_capacity () in
  let vnl = Twovnl.init db in
  ignore (Twovnl.register_table vnl ~n:config.n ~name:view_name daily_sales);
  let rows = ref [] in
  for day = config.days - 1 downto 0 do
    for gid = groups_per_day - 1 downto 0 do
      rows := Tuple.make daily_sales (group_key gid ~day @ [ Value.Int 1000 ]) :: !rows
    done
  done;
  Twovnl.load_initial vnl view_name !rows;
  Database.save db;
  vnl

(* One refresh batch: corrections to historical groups plus fresh groups
   for the day after the loaded history.  Inserts and updates only — the
   long-running scenario must not exhaust the key space, and retirements
   are exercised by the fault and stress suites. *)
let gen_ops rng ~days ~size ~fresh_day =
  let ops = ref [] in
  let fresh = Hashtbl.create 16 in
  for _ = 1 to size do
    if Xorshift.chance rng 0.3 then begin
      let gid = Xorshift.int rng groups_per_day in
      let key = group_key gid ~day:fresh_day in
      if Hashtbl.mem fresh gid then
        ops := Batch.Update (key, [ (4, Value.Int (Xorshift.int rng 9_000)) ]) :: !ops
      else begin
        Hashtbl.add fresh gid ();
        ops :=
          Batch.Insert (Tuple.make daily_sales (key @ [ Value.Int (Xorshift.int rng 9_000) ]))
          :: !ops
      end
    end
    else begin
      let gid = Xorshift.int rng groups_per_day and day = Xorshift.int rng days in
      ops :=
        Batch.Update (group_key gid ~day, [ (4, Value.Int (Xorshift.int rng 50_000)) ])
        :: !ops
    end
  done;
  List.rev !ops

(* The Example 2.1 analyst pair at one version: the city total, then its
   product-line drill-down; both through the compiled SQL read path. *)
let query_pair vnl session city =
  let total =
    match
      (Twovnl.Session.query vnl session
         ~params:[ ("city", Value.Str city) ]
         "SELECT SUM(total_sales) FROM DailySales WHERE city = :city")
        .Plan.rows
    with
    | [ [ Value.Int n ] ] -> n
    | _ -> 0
  in
  let drill =
    (Twovnl.Session.query vnl session
       ~params:[ ("city", Value.Str city) ]
       "SELECT product_line, SUM(total_sales) FROM DailySales WHERE city = :city \
        GROUP BY product_line")
      .Plan.rows
    |> List.fold_left
         (fun acc row -> match row with [ _; Value.Int n ] -> acc + n | _ -> acc)
         0
  in
  (total, drill)

type reader_tally = {
  mutable queries : int;
  mutable rows : int;
  mutable opened : int;
  mutable expirations : int;
  mutable bad : int;
  mutable latencies_ms : float list;
      (** Per-query-pair wall-clock samples, newest first.  Owned by one
          reader domain during the run; read after the domains join. *)
}

let reader_loop vnl ~stop ~rng ~queries_per_session tally =
  let cities = Array.map fst Sales_gen.cities in
  while not (Atomic.get stop) do
    let session = Twovnl.Session.begin_ vnl in
    tally.opened <- tally.opened + 1;
    (try
       let q = ref 0 in
       while (not (Atomic.get stop)) && !q < queries_per_session do
         incr q;
         let city = Xorshift.pick rng cities in
         let t0 = Unix.gettimeofday () in
         let total, drill = query_pair vnl session city in
         tally.latencies_ms <- ((Unix.gettimeofday () -. t0) *. 1e3) :: tally.latencies_ms;
         if total <> drill then tally.bad <- tally.bad + 1;
         (* Every few pairs, a full-view scan through the engine
            extraction — the §4.1 pattern the fast path serves. *)
         if !q mod 4 = 0 then begin
           let rows = Twovnl.Session.read_table vnl session view_name in
           tally.rows <- tally.rows + List.length rows
         end;
         tally.queries <- tally.queries + 1
       done
     with Twovnl.Expired _ -> tally.expirations <- tally.expirations + 1);
    Twovnl.Session.end_ vnl session
  done

let maintainer_loop vnl ~stop ~until_s ~rng ~days ~batch_size =
  let db = Twovnl.database vnl in
  let refreshes = ref 0 in
  let fresh_day = ref days in
  while Unix.gettimeofday () < until_s do
    let ops = gen_ops rng ~days ~size:batch_size ~fresh_day:!fresh_day in
    incr fresh_day;
    ignore
      (Recovery.run_maintenance db vnl (fun txn ->
           Twovnl.Txn.apply_batch txn ~table:view_name ops));
    incr refreshes;
    ignore (Twovnl.collect_garbage vnl)
  done;
  Atomic.set stop true;
  !refreshes

(* ------------------------------------------------------------------ *)
(* Maintainer-side scaling: warehouse refresh rounds
   ({!Vnl_warehouse.Warehouse.refresh} — batched classification, k
   dependency-disjoint stripes, targeted flushes) over a fixed number of
   identical pre-generated source batches (same seed => same batches at
   every k, so the comparison is fair).  Optional reader domains run the
   Example 2.1 consistency pair throughout — the point of pipelining under
   nVNL is that reader service never stops. *)

type pipeline_config = {
  workers : int;  (** Stripes and batches per round; 0 runs as 1. *)
  rounds : int;  (** Refresh rounds to drive (the measured work). *)
  readers : int;  (** Concurrent reader domains (0 = none). *)
  days : int;
  batch_size : int;
  n : int;  (** Version slots; pipelining wants n >= workers + 1. *)
  pool_capacity : int;
  queries_per_session : int;
  seed : int;
}

let default_pipeline_config =
  {
    workers = 0;
    rounds = 40;
    readers = 0;
    days = 4;
    batch_size = 1000;
    n = 2;
    pool_capacity = 256;
    queries_per_session = 8;
    seed = 11;
  }

type pipeline_report = {
  p_workers : int;
  p_rounds : int;
  p_elapsed_s : float;
  p_refreshes_per_s : float;  (** Maintenance transactions (rounds) per second. *)
  p_ops_per_s : float;  (** Logical operations propagated per second. *)
  p_stripes : int;  (** Total stripes (published VNs) across all rounds. *)
  p_reader_queries : int;
  p_inconsistent : int;
  p_expired : int;
}

let run_pipeline (config : pipeline_config) =
  if config.rounds < 1 then invalid_arg "Parallel.run_pipeline: need at least one round";
  let module Warehouse = Vnl_warehouse.Warehouse in
  let module Delta = Vnl_warehouse.Delta in
  let wh =
    Warehouse.create ~n:config.n ~pool_capacity:config.pool_capacity
      [ Sales_gen.daily_sales_view () ]
  in
  let vnl = Warehouse.vnl wh in
  let rng = Xorshift.create config.seed in
  Warehouse.queue_changes wh ~view:view_name
    (Sales_gen.initial_load rng ~days:config.days ~sales_per_day:100);
  ignore (Warehouse.refresh wh);
  (* Pre-generate every round's source batch (insert-only: sales landing
     in existing groups become view updates, fresh-day sales become view
     inserts) so generation cost and content are identical across
     configurations. *)
  let batches =
    Array.init config.rounds (fun i ->
        List.init config.batch_size (fun _ ->
            let day =
              if Xorshift.chance rng 0.3 then config.days + i else Xorshift.int rng config.days
            in
            Delta.Insert (Sales_gen.gen_sale rng ~day)))
  in
  let vn0 = Vnl_core.Version_state.current_vn (Twovnl.version_state vnl) in
  let stop = Atomic.make false in
  let tallies =
    Array.init (max 1 config.readers) (fun _ ->
        { queries = 0; rows = 0; opened = 0; expirations = 0; bad = 0; latencies_ms = [] })
  in
  let rngs = Array.init (config.readers + 1) (fun i -> Xorshift.create (config.seed + 100 + i)) in
  let elapsed = ref 0.0 in
  (* The maintainer admits a window of up to [workers] queued batches per
     round: the round nets the window's changes together (each hot group
     written and flushed once instead of once per batch), partitions them
     into key-disjoint stripes, and publishes one VN per stripe in order —
     so readers see intermediate consistent states at the same granularity
     one-batch rounds would give them, which a single fat batch cannot
     do. *)
  let workers = max 1 config.workers in
  let maintain () =
    let t0 = Unix.gettimeofday () in
    let i = ref 0 in
    while !i < config.rounds do
      let w = min workers (config.rounds - !i) in
      for j = !i to !i + w - 1 do
        Warehouse.queue_changes wh ~view:view_name batches.(j)
      done;
      ignore (Warehouse.refresh ~workers wh);
      ignore (Warehouse.collect_garbage wh);
      i := !i + w
    done;
    elapsed := Unix.gettimeofday () -. t0;
    Atomic.set stop true
  in
  if config.readers < 1 then maintain ()
  else
    ignore
      (Domain_pool.run ~domains:(config.readers + 1) (fun ~start rank ->
           start ();
           if rank = 0 then maintain ()
           else
             reader_loop vnl ~stop ~rng:rngs.(rank)
               ~queries_per_session:config.queries_per_session
               tallies.(rank - 1)));
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  {
    p_workers = config.workers;
    p_rounds = config.rounds;
    p_elapsed_s = !elapsed;
    p_refreshes_per_s =
      (if !elapsed > 0.0 then float_of_int config.rounds /. !elapsed else 0.0);
    p_ops_per_s =
      (if !elapsed > 0.0 then float_of_int (config.rounds * config.batch_size) /. !elapsed
       else 0.0);
    p_stripes = Vnl_core.Version_state.current_vn (Twovnl.version_state vnl) - vn0;
    p_reader_queries = sum (fun t -> t.queries);
    p_inconsistent = sum (fun t -> t.bad);
    p_expired = sum (fun t -> t.expirations);
  }

let run (config : config) =
  if config.readers < 1 then invalid_arg "Parallel.run: need at least one reader";
  let vnl = build ~config in
  let stop = Atomic.make false in
  let tallies =
    Array.init config.readers (fun _ ->
        { queries = 0; rows = 0; opened = 0; expirations = 0; bad = 0; latencies_ms = [] })
  in
  let rngs = Array.init (config.readers + 1) (fun i -> Xorshift.create (config.seed + i)) in
  let t0 = ref 0.0 in
  let results =
    Domain_pool.run ~domains:(config.readers + 1) (fun ~start rank ->
        start ();
        if rank = 0 then begin
          (* Rank 0 is the maintenance domain and the timekeeper. *)
          let now = Unix.gettimeofday () in
          t0 := now;
          maintainer_loop vnl ~stop ~until_s:(now +. config.duration_s) ~rng:rngs.(0)
            ~days:config.days ~batch_size:config.batch_size
        end
        else begin
          reader_loop vnl ~stop ~rng:rngs.(rank)
            ~queries_per_session:config.queries_per_session
            tallies.(rank - 1);
          0
        end)
  in
  let elapsed = Unix.gettimeofday () -. !t0 in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let queries = sum (fun t -> t.queries) in
  {
    readers = config.readers;
    elapsed_s = elapsed;
    reader_queries = queries;
    per_reader = Array.map (fun t -> t.queries) tallies;
    rows_scanned = sum (fun t -> t.rows);
    sessions = sum (fun t -> t.opened);
    expired = sum (fun t -> t.expirations);
    inconsistent = sum (fun t -> t.bad);
    refreshes = results.(0);
    qps = (if elapsed > 0.0 then float_of_int queries /. elapsed else 0.0);
    latency =
      Vnl_util.Stats.summarize
        (Array.fold_left (fun acc t -> List.rev_append t.latencies_ms acc) [] tallies);
  }
