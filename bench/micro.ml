(* MICRO: Bechamel microbenchmarks for the CPU-side overhead of the 2VNL
   hot paths (§6 discusses run-time overhead qualitatively): per-tuple
   reader extraction, the reader query rewrite, maintenance decision-table
   application, unique-key probes, version-pool fetches, and the compiled
   (prepared) reader path against parse+rewrite+interpret.

   The prepared-vs-interpreted pairs are also timed with a plain
   wall-clock loop and written to BENCH_plans.json, the committed record
   of the plan-compilation speedup. *)

open Bechamel
open Toolkit
module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Schema = Vnl_relation.Schema
module Dtype = Vnl_relation.Dtype
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Executor = Vnl_query.Executor
module Plan = Vnl_query.Plan
module Op = Vnl_core.Op
module Schema_ext = Vnl_core.Schema_ext
module Reader = Vnl_core.Reader
module Maintenance = Vnl_core.Maintenance
module Rewrite = Vnl_core.Rewrite
module Twovnl = Vnl_core.Twovnl
module Bptree = Vnl_index.Bptree
module Hash_index = Vnl_index.Hash_index
module Version_pool = Vnl_txn.Version_pool

let daily_sales =
  Schema.make
    [
      Schema.attr ~key:true "city" (Dtype.Str 20);
      Schema.attr ~key:true "state" (Dtype.Str 2);
      Schema.attr ~key:true "product_line" (Dtype.Str 12);
      Schema.attr ~key:true "date" Dtype.Date;
      Schema.attr ~updatable:true "total_sales" Dtype.Int;
    ]

let ext = Schema_ext.extend daily_sales

let ext_tuple =
  Tuple.make (Schema_ext.extended ext)
    [
      Value.Int 4; Op.to_value Op.Update; Value.Str "San Jose"; Value.Str "CA";
      Value.Str "golf equip"; Value.date_of_mdy 10 14 96; Value.Int 12000; Value.Int 10000;
    ]

let extract_current () = Reader.extract ext ~session_vn:4 ext_tuple

let extract_pre () = Reader.extract ext ~session_vn:3 ext_tuple

let bench_extract_current =
  Test.make ~name:"reader extract (current version)" (Staged.stage extract_current)

let bench_extract_pre =
  Test.make ~name:"reader extract (pre-update version)" (Staged.stage extract_pre)

let analyst_query =
  "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state"

let lookup name = if String.equal name "DailySales" then Some ext else None

let parsed_query = Vnl_sql.Parser.parse_select analyst_query

let rewrite_only () = Rewrite.reader_select ~lookup parsed_query

let parse_and_rewrite () = Rewrite.reader_sql ~lookup analyst_query

let bench_rewrite =
  Test.make ~name:"reader query rewrite (Example 4.1)" (Staged.stage rewrite_only)

let bench_parse_and_rewrite =
  Test.make ~name:"parse + rewrite + print" (Staged.stage parse_and_rewrite)

(* Maintenance update applied to a one-tuple table, alternating values so
   the work does not degenerate. *)
let maint_setup () =
  let db = Database.create () in
  let table = Database.create_table db "T" (Schema_ext.extended ext) in
  let rid =
    Maintenance.apply_insert ext table ~vn:2
      (Tuple.make daily_sales
         [ Value.Str "San Jose"; Value.Str "CA"; Value.Str "golf equip";
           Value.date_of_mdy 10 14 96; Value.Int 100 ])
  in
  (table, rid)

let maintenance_update =
  let table, rid = maint_setup () in
  let vn = ref 3 in
  fun () ->
    incr vn;
    Maintenance.apply_update ext table ~vn:!vn rid [ (4, Value.Int !vn) ]

let bench_maintenance_update =
  Test.make ~name:"maintenance update (Table 3 step)" (Staged.stage maintenance_update)

let bptree_probe =
  let tree = Bptree.create () in
  let () =
    for i = 0 to 9999 do
      Bptree.insert tree [ Value.Int i ] i
    done
  in
  let i = ref 0 in
  fun () ->
    i := (!i + 7919) mod 10000;
    Bptree.find tree [ Value.Int !i ]

let bench_bptree_probe =
  Test.make ~name:"B+-tree key probe (10k keys)" (Staged.stage bptree_probe)

(* The same probe stream against the unique-key index tables use. *)
let hash_probe =
  let index = Hash_index.create () in
  let () =
    for i = 0 to 9999 do
      Hash_index.replace index [ Value.Int i ] i
    done
  in
  let i = ref 0 in
  fun () ->
    i := (!i + 7919) mod 10000;
    Hash_index.find index [ Value.Int !i ]

let bench_hash_probe =
  Test.make ~name:"unique-key index probe (10k keys)" (Staged.stage hash_probe)

let pool_fetch =
  let disk = Vnl_storage.Disk.create () in
  let bp = Vnl_storage.Buffer_pool.create ~capacity:64 disk in
  let pool = Version_pool.create bp daily_sales in
  let key = { Version_pool.page = 0; slot = 0 } in
  let () =
    for vn = 1 to 8 do
      Version_pool.stash pool ~key ~vn
        (Tuple.make daily_sales
           [ Value.Str "San Jose"; Value.Str "CA"; Value.Str "golf equip";
             Value.date_of_mdy 10 14 96; Value.Int (vn * 100) ])
    done
  in
  fun () -> Version_pool.fetch pool ~key ~max_vn:2

let bench_pool_fetch =
  Test.make ~name:"version-pool fetch (8-deep chain)" (Staged.stage pool_fetch)

(* Compiled once: each run is one plan execution, no parse. *)
let group_by_plan =
  lazy
    (let db = Database.create ~pool_capacity:512 () in
     let table = Database.create_table db "DailySales" daily_sales in
     let rng = Vnl_util.Xorshift.create 3 in
     List.iter
       (fun (city, state) ->
         List.iteri
           (fun d pl ->
             ignore
               (Table.insert table
                  (Tuple.make daily_sales
                     [ Value.Str city; Value.Str state; Value.Str pl;
                       Value.date_of_mdy 10 ((d mod 27) + 1) 96;
                       Value.Int (Vnl_util.Xorshift.int rng 1000) ])))
           [ "golf equip"; "racquetball"; "tennis"; "running" ])
       (Array.to_list Vnl_workload.Sales_gen.cities);
     Plan.prepare db (Vnl_sql.Parser.parse_select analyst_query))

let group_by_query () = Plan.execute (Lazy.force group_by_plan)

let bench_group_by_query =
  Test.make ~name:"group-by query (48 rows)" (Staged.stage group_by_query)

(* §5: "the higher n is, the more overhead we incur in ... run-time costs"
   — measure per-tuple extraction of the oldest readable version as n
   grows. *)
let extract_for_n n =
  let extn = Schema_ext.extend ~n daily_sales in
  let db = Database.create () in
  let table = Database.create_table db "N" (Schema_ext.extended extn) in
  let rid =
    Maintenance.apply_insert extn table ~vn:2
      (Tuple.make daily_sales
         [ Value.Str "San Jose"; Value.Str "CA"; Value.Str "golf equip";
           Value.date_of_mdy 10 14 96; Value.Int 100 ])
  in
  for vn = 3 to n + 1 do
    Maintenance.apply_update extn table ~vn rid [ (4, Value.Int (vn * 10)) ]
  done;
  let tuple = Option.get (Table.get table rid) in
  fun () -> Reader.extract extn ~session_vn:2 tuple

let bench_extract_by_n =
  Test.make_indexed ~name:"nVNL extract oldest version" ~args:[ 2; 3; 4; 6 ] (fun n ->
      Staged.stage (extract_for_n n))

(* ------------------------------------------------------------------ *)
(* Compiled vs interpreted: the 2VNL reader hot path.                  *)
(* ------------------------------------------------------------------ *)

(* The same session statements executed two ways:
   - interpreted: parse + §4.1 rewrite + tree-walking interpreter, every
     call (what every reader query cost before plan compilation);
   - prepared: Twovnl.Session.query — compiled once into closures, then
     revalidated and re-executed from the plan cache (with the §4.1 fast
     path answering full-scan statements by engine-level extraction). *)
let plans_fixture =
  lazy
    (let db = Database.create ~pool_capacity:512 () in
     let wh = Twovnl.init db in
     ignore (Twovnl.register_table wh ~name:"DailySales" daily_sales);
     let rng = Vnl_util.Xorshift.create 7 in
     let rows = ref [] in
     List.iter
       (fun (city, state) ->
         List.iteri
           (fun d pl ->
             rows :=
               Tuple.make daily_sales
                 [ Value.Str city; Value.Str state; Value.Str pl;
                   Value.date_of_mdy 10 ((d mod 27) + 1) 96;
                   Value.Int (Vnl_util.Xorshift.int rng 1000) ]
               :: !rows)
           [ "golf equip"; "racquetball"; "tennis"; "running" ])
       (Array.to_list Vnl_workload.Sales_gen.cities);
     Twovnl.load_initial wh "DailySales" (List.rev !rows);
     let s = Twovnl.Session.begin_ wh in
     (db, wh, s))

let point_probe_query =
  "SELECT total_sales FROM DailySales WHERE city = :city AND state = :state \
   AND product_line = :pl AND date = DATE '10/14/96'"

let point_probe_params =
  [ ("city", Value.Str "San Jose"); ("state", Value.Str "CA");
    ("pl", Value.Str "golf equip") ]

let drill_down_query =
  "SELECT product_line, SUM(total_sales) FROM DailySales WHERE city = :city \
   GROUP BY product_line"

let drill_down_params = [ ("city", Value.Str "San Jose") ]

let interpreted_reader sql params () =
  let db, wh, s = Lazy.force plans_fixture in
  Executor.query db
    ~params:(("sessionVN", Value.Int (Twovnl.Session.vn s)) :: params)
    (Rewrite.reader_select ~lookup:(Twovnl.lookup wh) (Vnl_sql.Parser.parse_select sql))

let prepared_reader sql params () =
  let _, wh, s = Lazy.force plans_fixture in
  Twovnl.Session.query ~params wh s sql

(* name, interpreted closure, prepared closure — used by both the Bechamel
   group and the BENCH_plans.json timing loop. *)
let plan_pairs =
  [
    ("analyst group-by (Example 4.1)", interpreted_reader analyst_query [],
     prepared_reader analyst_query []);
    ("point probe (full key bound)", interpreted_reader point_probe_query point_probe_params,
     prepared_reader point_probe_query point_probe_params);
    ("drill-down group-by (:city)", interpreted_reader drill_down_query drill_down_params,
     prepared_reader drill_down_query drill_down_params);
  ]

let bench_plan_pairs =
  List.concat_map
    (fun (name, interp, prep) ->
      [
        Test.make ~name:(name ^ " [interpreted]") (Staged.stage interp);
        Test.make ~name:(name ^ " [prepared]") (Staged.stage prep);
      ])
    plan_pairs

(* Wall-clock ns/run with adaptive iteration counts; the warm-up calls also
   populate the plan cache, so the prepared numbers measure steady state.
   [min_time] is the sampling window per measurement — the smoke run
   shrinks it so @bench-smoke still emits a (rough) BENCH_plans.json. *)
let ns_per_run ?(min_time = 0.2) f =
  ignore (f ());
  ignore (f ());
  let rec go iters =
    let t0 = Sys.time () in
    for _ = 1 to iters do
      ignore (f ())
    done;
    let dt = Sys.time () -. t0 in
    if dt < min_time && iters < 8_388_608 then go (iters * 4)
    else dt *. 1e9 /. float_of_int iters
  in
  go 64

let write_plans_json results =
  let oc = open_out "BENCH_plans.json" in
  Printf.fprintf oc "{\n  \"description\": \"prepared (compiled plan cache) vs parse+rewrite+interpret on the 2VNL reader path; ns per statement\",\n  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, interp_ns, prep_ns) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"interpreted_ns\": %.0f, \"prepared_ns\": %.0f, \"speedup\": %.2f}%s\n"
        name interp_ns prep_ns (interp_ns /. prep_ns)
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ],\n  \"phases\": %s\n}\n" (Vnl_obs.Obs.phases_json ());
  close_out oc

let run_plans_json ?(smoke = false) () =
  Vnl_util.Ascii_table.section "PLANS  prepared statements vs parse+rewrite+interpret";
  (* The timing loops run with observability off — a reader statement is
     hundreds of ns, so even one Sys.time pair per call would distort the
     committed numbers.  The phases come from a separate instrumented pass
     below. *)
  Vnl_obs.Obs.enabled := false;
  let min_time = if smoke then 0.005 else 0.2 in
  let results =
    List.map
      (fun (name, interp, prep) -> (name, ns_per_run ~min_time interp, ns_per_run ~min_time prep))
      plan_pairs
  in
  (* Instrumented pass for the "phases" section: the same statements with
     spans on, outside the timed region. *)
  Vnl_obs.Obs.enabled := true;
  Vnl_obs.Obs.reset ();
  List.iter
    (fun (_, interp, prep) ->
      for _ = 1 to 100 do
        ignore (interp ());
        ignore (prep ())
      done)
    plan_pairs;
  Vnl_obs.Obs.enabled := false;
  Vnl_util.Ascii_table.print
    ~header:[ "statement"; "interpreted ns"; "prepared ns"; "speedup" ]
    (List.map
       (fun (name, i, p) ->
         [ name; Printf.sprintf "%.0f" i; Printf.sprintf "%.0f" p;
           Printf.sprintf "%.1fx" (i /. p) ])
       results);
  write_plans_json results;
  print_string
    "-> results written to BENCH_plans.json.  Compilation removes the\n\
    \   per-statement parse, rewrite, and tree-walk cost without touching\n\
    \   physical I/O.\n"

(* READER: where a cold §4.1 rollup's time goes, step by step, on a fixed
   table held entirely in the pool (43 seeded days of sales: 3,796 groups
   on 56 pages, the rollup benchmark's table size; 512 frames, so no step
   pays a miss).  Each row adds one step to the one above it, per full
   scan:
   - the visibility verdict alone (slot 1's two cells per record);
   - the verdict plus [decode_visible] into a row list, as an uncached
     extraction does;
   - the verdict plus a decoded-record cache hit (the extraction a session
     runs once the table's cache is warm);
   - that extraction plus the plan's grouping: [Session.query] in a fresh
     session, so the rollup cannot be served from a session memo.
   The gap between the last two rows and the first bounds what a fused
   rollup (grouping straight off the page bytes) could still save. *)
let reader_fixture =
  lazy
    (let wh =
       Vnl_warehouse.Warehouse.create ~pool_capacity:512
         [ Vnl_workload.Sales_gen.daily_sales_view () ]
     in
     Vnl_warehouse.Warehouse.queue_changes wh ~view:"DailySales"
       (Vnl_workload.Sales_gen.initial_load (Vnl_util.Xorshift.create 7) ~days:43
          ~sales_per_day:235);
     ignore (Vnl_warehouse.Warehouse.refresh wh);
     let vnl = Vnl_warehouse.Warehouse.vnl wh in
     let h = Twovnl.handle_exn vnl "DailySales" in
     let s = Twovnl.Session.begin_ vnl in
     (* Warms the pool, the plan cache and the handle's decode cache. *)
     ignore (Twovnl.Session.query vnl s analyst_query);
     Twovnl.Session.end_ vnl s;
     (vnl, Twovnl.ext h, Twovnl.table h, Twovnl.current_vn vnl))

let verdict_scan () =
  let _, ext, table, session_vn = Lazy.force reader_fixture in
  Table.fold_pages table ~init:0 ~f:(fun n ~page:_ img iter ->
      let n = ref n in
      iter (fun _ off ->
          match Schema_ext.visibility ext ~session_vn img off with
          | Schema_ext.Visible -> incr n
          | Schema_ext.Invisible | Schema_ext.Slow -> ());
      !n)

let decode_scan () =
  let _, ext, table, session_vn = Lazy.force reader_fixture in
  let strings = Value.Intern.create () in
  Table.fold_pages table ~init:[] ~f:(fun rows ~page:_ img iter ->
      let rows = ref rows in
      iter (fun _ off ->
          match Schema_ext.visibility ext ~session_vn img off with
          | Schema_ext.Visible ->
            rows := Schema_ext.decode_visible ext strings img off :: !rows
          | Schema_ext.Invisible | Schema_ext.Slow -> ());
      !rows)

let reader_cache = lazy (Reader.create_cache ())

let cached_scan () =
  let _, ext, table, session_vn = Lazy.force reader_fixture in
  Reader.visible_relation ~cache:(Lazy.force reader_cache) ext ~session_vn table

let cold_rollup () =
  let vnl, _, _, _ = Lazy.force reader_fixture in
  let s = Twovnl.Session.begin_ vnl in
  let r = Twovnl.Session.query vnl s analyst_query in
  Twovnl.Session.end_ vnl s;
  r

let reader_steps =
  [
    ("visibility verdict", fun () -> ignore (verdict_scan ()));
    ("verdict + decode_visible", fun () -> ignore (decode_scan ()));
    ("verdict + cache hit (visible_relation)", fun () -> ignore (cached_scan ()));
    ("+ plan grouping (cold-session rollup)", fun () -> ignore (cold_rollup ()));
  ]

(* The excess the first extraction after a commit pays: [refill_updates]
   records, spread over the table, get a new [total_sales] (written in
   place, as a refresh's update rewrites that cell), and the next
   extraction refills them.  Each run times that extraction and then an
   all-hit one on the same cache (its own), back to back; the difference,
   per changed record, is the refill's cost. *)
let refill_updates = 128

let refill_targets =
  lazy
    (let _, ext, table, _ = Lazy.force reader_fixture in
     let base = Schema_ext.base ext in
     let total = Schema_ext.base_index ext (Schema.index_of base "total_sales") in
     let cell = (Schema.cell_offsets (Schema_ext.extended ext)).(total) in
     let records =
       Table.fold_raw table ~init:[] ~f:(fun acc ~page ~slot:_ _ off -> (page, off + cell) :: acc)
       |> Array.of_list
     in
     let stride = Array.length records / refill_updates in
     Array.init refill_updates (fun i -> records.(i * stride)))

let update_targets () =
  let _, _, table, _ = Lazy.force reader_fixture in
  let pool = Vnl_storage.Heap_file.buffer_pool (Table.heap table) in
  Array.iter
    (fun (page, at) ->
      Vnl_storage.Buffer_pool.with_page_mut pool page (fun img ->
          Bytes.set_int32_le img at (Int32.add (Bytes.get_int32_le img at) 1l)))
    (Lazy.force refill_targets)

let refill_cache = lazy (Reader.create_cache ())

let refill_scan () =
  let _, ext, table, session_vn = Lazy.force reader_fixture in
  Reader.visible_relation ~cache:(Lazy.force refill_cache) ext ~session_vn table

let refill_excess ~min_time =
  ignore (refill_scan ());
  let refill = ref 0.0 and hit = ref 0.0 and runs = ref 0 in
  let stop = Unix.gettimeofday () +. min_time in
  while !runs < 8 || Unix.gettimeofday () < stop do
    update_targets ();
    let t0 = Unix.gettimeofday () in
    ignore (refill_scan ());
    let t1 = Unix.gettimeofday () in
    ignore (refill_scan ());
    let t2 = Unix.gettimeofday () in
    refill := !refill +. (t1 -. t0);
    hit := !hit +. (t2 -. t1);
    incr runs
  done;
  let per_run x = x *. 1e9 /. float !runs in
  (per_run !refill, per_run !hit)

let run_reader_attribution ?(smoke = false) () =
  Vnl_util.Ascii_table.section "READER  a cold rollup, step by step (56 cached pages)";
  Vnl_obs.Obs.enabled := false;
  let _, _, table, _ = Lazy.force reader_fixture in
  let records = Table.tuple_count table in
  ignore (cached_scan ());
  let min_time = if smoke then 0.005 else 0.5 in
  let steps =
    List.map
      (fun (name, f) ->
        let ns = ns_per_run ~min_time f in
        [ name; Printf.sprintf "%.1f" (ns /. 1e3); Printf.sprintf "%.1f" (ns /. float records) ])
      reader_steps
  in
  let refill, hit = refill_excess ~min_time in
  Vnl_util.Ascii_table.print
    ~header:[ "step"; "us/scan"; "ns/record" ]
    (steps
    @ [
        [
          Printf.sprintf "refill after %d updates (ns per changed record)" refill_updates;
          Printf.sprintf "%.1f" (refill /. 1e3);
          Printf.sprintf "%.1f" ((refill -. hit) /. float refill_updates);
        ];
      ]);
  Printf.printf "-> %d records on %d pages, all resident.\n" records (Table.page_count table)

(* PLAN CACHE: what a literal point probe pays on every query now that
   reader plans are cached by statement shape.  The texts carry the whole
   key as literals (a different city each call, all one shape), as the
   wire clients send them:
   - normalize: [Shape.normalize] alone, the shape key and four typed
     literals;
   - the whole hit path: [Session.query] — normalize, one cache lookup,
     bind the literals, probe and project. *)
let literal_probes =
  lazy
    (Array.map
       (fun (city, state) ->
         Printf.sprintf
           "SELECT total_sales FROM DailySales WHERE city = '%s' AND state = '%s' AND \
            product_line = 'golf equip' AND date = DATE '10/14/96'"
           city state)
       Vnl_workload.Sales_gen.cities)

let next_probe =
  let i = ref 0 in
  fun () ->
    let probes = Lazy.force literal_probes in
    incr i;
    probes.(!i mod Array.length probes)

let run_plan_cache_attribution ?(smoke = false) () =
  Vnl_util.Ascii_table.section "PLAN CACHE  the reader-plan hit path on a literal point probe";
  Vnl_obs.Obs.enabled := false;
  let _, wh, s = Lazy.force plans_fixture in
  let min_time = if smoke then 0.005 else 0.5 in
  let normalize = ns_per_run ~min_time (fun () -> Vnl_sql.Shape.normalize (next_probe ())) in
  let query = ns_per_run ~min_time (fun () -> Twovnl.Session.query wh s (next_probe ())) in
  Vnl_util.Ascii_table.print ~header:[ "step"; "ns/query" ]
    [
      [ "normalize (shape key + 4 literals)"; Printf.sprintf "%.0f" normalize ];
      [ "Session.query hit (normalize, look up, bind, probe)"; Printf.sprintf "%.0f" query ];
    ];
  Printf.printf "-> normalizing is %.0f%% of a cached literal point probe.\n"
    (100. *. normalize /. query)

let tests =
  Test.make_grouped ~name:"vnl"
    ([
       bench_extract_current;
       bench_extract_pre;
       bench_extract_by_n;
       bench_rewrite;
       bench_parse_and_rewrite;
       bench_maintenance_update;
       bench_bptree_probe;
       bench_hash_probe;
       bench_pool_fetch;
       bench_group_by_query;
     ]
    @ bench_plan_pairs)

(* One call per workload: the @bench-smoke alias uses this to prove every
   benchmark still runs without paying for statistical sampling. *)
let smoke () =
  Vnl_util.Ascii_table.section "MICRO  smoke run (one iteration per benchmark)";
  let thunks : (string * (unit -> unit)) list =
    [
      ("reader extract (current)", fun () -> ignore (extract_current ()));
      ("reader extract (pre-update)", fun () -> ignore (extract_pre ()));
      ("reader query rewrite", fun () -> ignore (rewrite_only ()));
      ("parse + rewrite + print", fun () -> ignore (parse_and_rewrite ()));
      ("maintenance update", fun () -> maintenance_update ());
      ("B+-tree key probe", fun () -> ignore (bptree_probe ()));
      ("unique-key index probe", fun () -> ignore (hash_probe ()));
      ("version-pool fetch", fun () -> ignore (pool_fetch ()));
      ("group-by query", fun () -> ignore (group_by_query ()));
    ]
    @ List.map (fun n -> (Printf.sprintf "nVNL extract (n=%d)" n,
                          let f = extract_for_n n in fun () -> ignore (f ())))
        [ 2; 3; 4; 6 ]
    @ List.concat_map
        (fun (name, interp, prep) ->
          [
            (name ^ " [interpreted]", fun () -> ignore (interp ()));
            (name ^ " [prepared]", fun () -> ignore (prep ()));
          ])
        plan_pairs
  in
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "  ok  %s\n" name)
    thunks;
  print_endline "-> all microbenchmark workloads executed once.";
  run_reader_attribution ~smoke:true ();
  run_plan_cache_attribution ~smoke:true ();
  (* Short sampling windows: the smoke run still records BENCH_plans.json
     (with its registry-sourced phases) for the bench-compare CI gate. *)
  run_plans_json ~smoke:true ()

let run ?(smoke_only = false) () =
  if smoke_only then smoke ()
  else begin
    Vnl_util.Ascii_table.section "MICRO  CPU cost of the 2VNL hot paths (Bechamel)";
    let ols =
      Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg instances tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let rows = ref [] in
    Hashtbl.iter
      (fun name ols_result ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (x :: _) -> Printf.sprintf "%.1f" x
          | _ -> "?"
        in
        rows := [ name; ns ] :: !rows)
      results;
    Vnl_util.Ascii_table.print ~header:[ "benchmark"; "ns/run" ]
      (List.sort compare !rows);
    print_endline
      "-> per-tuple extraction and decision-table steps are tens to hundreds of\n\
      \   nanoseconds: the run-time overhead 2VNL adds to reads is small (§6).";
    run_reader_attribution ();
    run_plan_cache_attribution ();
    run_plans_json ()
  end
