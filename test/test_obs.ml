(* Tests for the observability layer (lib/obs): metric-cell semantics, the
   registry, exporters, span tracing across real warehouse refreshes and
   crash recovery, and — the load-bearing property — that turning
   observability off changes nothing a reader or an experiment can see. *)

module Obs = Vnl_obs.Obs
module Json = Vnl_obs.Json
module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Database = Vnl_query.Database
module Disk = Vnl_storage.Disk
module Buffer_pool = Vnl_storage.Buffer_pool
module Twovnl = Vnl_core.Twovnl
module Recovery = Vnl_core.Recovery
module Warehouse = Vnl_warehouse.Warehouse
module Sales_gen = Vnl_workload.Sales_gen
module Stats = Vnl_util.Stats
module Xorshift = Vnl_util.Xorshift

let check = Alcotest.check

(* Every test leaves the global switch off and the default registry clean:
   the other suites in this binary assume an uninstrumented world. *)
let with_obs ?(enabled = true) f =
  Obs.enabled := enabled;
  Obs.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.enabled := false;
      Obs.reset ())
    f

(* ---------- metric cells ---------- *)

let test_counter () =
  with_obs (fun () ->
      let r = Obs.Registry.create () in
      let c = Obs.Registry.counter ~registry:r "c" in
      check Alcotest.int "starts at 0" 0 (Obs.Counter.get c);
      Obs.Counter.add c 3;
      Obs.Counter.incr c;
      check Alcotest.int "add/incr unconditional" 4 (Obs.Counter.get c);
      Obs.enabled := false;
      Obs.Counter.record c 10;
      check Alcotest.int "record gated off" 4 (Obs.Counter.get c);
      Obs.enabled := true;
      Obs.Counter.record c 10;
      check Alcotest.int "record gated on" 14 (Obs.Counter.get c);
      Obs.Counter.reset c;
      check Alcotest.int "reset" 0 (Obs.Counter.get c))

let test_gauge_initial () =
  with_obs (fun () ->
      let r = Obs.Registry.create () in
      let g = Obs.Registry.gauge ~registry:r ~initial:(-1) "g" in
      check Alcotest.int "starts at initial" (-1) (Obs.Gauge.get g);
      Obs.Gauge.set g 42;
      check Alcotest.int "set" 42 (Obs.Gauge.get g);
      Obs.Registry.reset r;
      check Alcotest.int "registry reset restores initial" (-1) (Obs.Gauge.get g))

let test_histogram_summary () =
  with_obs (fun () ->
      let r = Obs.Registry.create () in
      let h = Obs.Registry.histogram ~registry:r "h" in
      List.iter (Obs.Histogram.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
      check Alcotest.int "count" 4 (Obs.Histogram.count h);
      let s = Obs.Histogram.summary h in
      check (Alcotest.float 1e-9) "mean exact" 2.5 s.Stats.mean;
      check (Alcotest.float 1e-9) "min exact" 1.0 s.Stats.min;
      check (Alcotest.float 1e-9) "max exact" 4.0 s.Stats.max;
      check (Alcotest.float 1e-9) "total exact" 10.0 s.Stats.total;
      (* Percentiles are bucket-resolution estimates, clamped to the
         observed range. *)
      Alcotest.(check bool) "p99 within range" true (s.Stats.p99 >= 1.0 && s.Stats.p99 <= 4.0);
      Obs.Histogram.reset h;
      check Alcotest.int "reset" 0 (Obs.Histogram.count h))

let test_registry_idempotent () =
  with_obs (fun () ->
      let r = Obs.Registry.create () in
      let a = Obs.Registry.counter ~registry:r "x" in
      let b = Obs.Registry.counter ~registry:r "x" in
      Obs.Counter.incr a;
      check Alcotest.int "same cell by name" 1 (Obs.Counter.get b);
      Alcotest.(check bool) "kind clash rejected" true
        (try ignore (Obs.Registry.gauge ~registry:r "x"); false
         with Invalid_argument _ -> true);
      ignore (Obs.Registry.gauge ~registry:r "y");
      ignore (Obs.Registry.histogram ~registry:r "z");
      check Alcotest.int "one counter" 1 (List.length (Obs.Registry.counters r));
      check Alcotest.int "one gauge" 1 (List.length (Obs.Registry.gauges r));
      check Alcotest.int "one histogram" 1 (List.length (Obs.Registry.histograms r)))

(* ---------- exporters ---------- *)

let test_json_roundtrip () =
  with_obs (fun () ->
      let r = Obs.Registry.create () in
      Obs.Counter.add (Obs.Registry.counter ~registry:r "k.count") 7;
      Obs.Gauge.set (Obs.Registry.gauge ~registry:r "k.gauge") (-3);
      Obs.Histogram.observe (Obs.Registry.histogram ~registry:r "k.hist") 1.5;
      let j = Json.parse (Obs.to_json ~registry:r ()) in
      (match Json.member "counters" j with
      | Some (Json.Obj [ ("k.count", Json.Num n) ]) ->
        check (Alcotest.float 0.0) "counter value" 7.0 n
      | _ -> Alcotest.fail "counters section malformed");
      (match Json.member "gauges" j with
      | Some (Json.Obj [ ("k.gauge", Json.Num n) ]) ->
        check (Alcotest.float 0.0) "gauge value" (-3.0) n
      | _ -> Alcotest.fail "gauges section malformed");
      match Json.member "histograms" j with
      | Some (Json.Obj [ ("k.hist", Json.Obj fields) ]) ->
        Alcotest.(check bool) "histogram has count" true (List.mem_assoc "count" fields)
      | _ -> Alcotest.fail "histograms section malformed")

let test_prometheus_render () =
  with_obs (fun () ->
      let r = Obs.Registry.create () in
      Obs.Counter.add (Obs.Registry.counter ~registry:r "disk.reads") 5;
      Obs.Histogram.observe (Obs.Registry.histogram ~registry:r "lat.ms") 0.5;
      let text = Obs.to_prometheus ~registry:r () in
      let has needle =
        let ln = String.length needle and lt = String.length text in
        let rec go i = i + ln <= lt && (String.sub text i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "counter line" true (has "vnl_disk_reads 5");
      Alcotest.(check bool) "counter type" true (has "# TYPE vnl_disk_reads counter");
      Alcotest.(check bool) "histogram buckets" true (has "vnl_lat_ms_bucket{le=");
      Alcotest.(check bool) "histogram count" true (has "vnl_lat_ms_count 1");
      Alcotest.(check bool) "overflow bucket" true (has "le=\"+Inf\""))

let test_json_parser () =
  let j = Json.parse {| {"a": [1, -2.5e1, true, null], "s": "x\nA\"y"} |} in
  (match Json.member "a" j with
  | Some (Json.Arr [ Json.Num a; Json.Num b; Json.Bool true; Json.Null ]) ->
    check (Alcotest.float 0.0) "int" 1.0 a;
    check (Alcotest.float 0.0) "negative exponent form" (-25.0) b
  | _ -> Alcotest.fail "array malformed");
  (match Json.member "s" j with
  | Some (Json.Str s) -> check Alcotest.string "escapes" "x\nA\"y" s
  | _ -> Alcotest.fail "string malformed");
  List.iter
    (fun src ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" src)
        true
        (try ignore (Json.parse src); false with Json.Parse_error _ -> true))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "{} trailing" ]

(* ---------- spans over the real stack ---------- *)

let mk_wh rng =
  let wh = Warehouse.create ~pool_capacity:64 [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.initial_load rng ~days:3 ~sales_per_day:60);
  wh

let test_refresh_span_nesting () =
  with_obs (fun () ->
      let wh = mk_wh (Xorshift.create 5) in
      ignore (Warehouse.refresh wh);
      check Alcotest.int "no span leaks" 0 (Obs.open_spans ());
      let spans = Obs.recent_spans () in
      let find name = List.find_opt (fun sp -> String.equal sp.Obs.Span.name name) spans in
      (match (find "warehouse.refresh", find "maintenance.txn") with
      | Some outer, Some inner ->
        check Alcotest.int "refresh is outermost" 0 outer.Obs.Span.depth;
        check Alcotest.int "maintenance nests inside" 1 inner.Obs.Span.depth;
        Alcotest.(check bool) "both closed" true
          (outer.Obs.Span.status = Obs.Span.Closed && inner.Obs.Span.status = Obs.Span.Closed)
      | _ -> Alcotest.fail "expected warehouse.refresh and maintenance.txn spans");
      (* The protocol phases all fired and feed the phase summaries. *)
      let phases = List.map fst (Obs.phase_summaries ()) in
      List.iter
        (fun p ->
          Alcotest.(check bool) (p ^ " recorded") true (List.mem p phases))
        [ "warehouse.refresh"; "maintenance.txn"; "maintenance.flag"; "maintenance.apply";
          "maintenance.flush"; "maintenance.publish" ])

let test_crash_spans_abort_not_leak () =
  with_obs (fun () ->
      let wh = mk_wh (Xorshift.create 6) in
      ignore (Warehouse.refresh wh);
      let db = Warehouse.database wh in
      Database.save db;
      let disk = Database.disk db in
      let rng = Xorshift.create 7 in
      let src = Warehouse.source wh "DailySales" in
      Warehouse.queue_changes wh ~view:"DailySales"
        (Sales_gen.gen_batch rng src ~day:4 ~inserts:40 ~updates:10 ~deletes:5);
      Obs.reset ();
      Disk.set_faults disk { Disk.no_faults with Disk.crash_at_write = Some 2 };
      (try
         ignore (Warehouse.refresh wh);
         Alcotest.fail "crash point did not fire"
       with Disk.Crash _ -> ());
      Disk.clear_faults disk;
      check Alcotest.int "no span leaks through the crash" 0 (Obs.open_spans ());
      let aborted =
        List.filter (fun sp -> sp.Obs.Span.status = Obs.Span.Aborted) (Obs.recent_spans ())
      in
      Alcotest.(check bool) "crash recorded as aborted spans" true (List.length aborted >= 2);
      Alcotest.(check bool) "refresh span among the aborted" true
        (List.exists (fun sp -> String.equal sp.Obs.Span.name "warehouse.refresh") aborted);
      (* Restart-time recovery on the surviving image: its spans open and
         close normally. *)
      Obs.reset ();
      let _vnl, outcome =
        Recovery.reopen ~pool_capacity:64 disk
          ~tables:
            [ ("DailySales",
               Vnl_warehouse.View_def.target_schema (Sales_gen.daily_sales_view ())) ]
      in
      Alcotest.(check bool) "repair ran on the interrupted image" true outcome.Recovery.interrupted;
      check Alcotest.int "recovery leaks no spans" 0 (Obs.open_spans ());
      let names = List.map (fun sp -> sp.Obs.Span.name) (Obs.recent_spans ()) in
      Alcotest.(check bool) "recovery spans closed" true
        (List.mem "recovery.reopen" names && List.mem "recovery.repair" names))

(* ---------- observability off is free ---------- *)

let analyst = "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state"

(* The same deterministic workload, rendered to comparable artifacts:
   query output strings, pool counters, raw disk counters. *)
let run_differential () =
  let rng = Xorshift.create 99 in
  let wh = mk_wh rng in
  ignore (Warehouse.refresh wh);
  let s = Warehouse.begin_session wh in
  let r1 = Warehouse.query wh s analyst in
  let src = Warehouse.source wh "DailySales" in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.gen_batch rng src ~day:4 ~inserts:30 ~updates:10 ~deletes:5);
  ignore (Warehouse.refresh wh);
  let r2 = Warehouse.query wh s analyst in
  Warehouse.end_session wh s;
  let db = Warehouse.database wh in
  let render r = Format.asprintf "%a" Vnl_query.Plan.pp_result r in
  (render r1, render r2, Database.io_stats db, Disk.stats (Database.disk db))

let test_disabled_is_identical () =
  let on = with_obs ~enabled:true run_differential in
  let off = with_obs ~enabled:false run_differential in
  let q1_on, q2_on, io_on, d_on = on and q1_off, q2_off, io_off, d_off = off in
  check Alcotest.string "pre-refresh query identical" q1_on q1_off;
  check Alcotest.string "post-refresh query identical" q2_on q2_off;
  Alcotest.(check bool) "pool I/O counters identical" true (io_on = io_off);
  Alcotest.(check bool) "disk counters identical" true (d_on = d_off)

let test_pool_reset_via_registry () =
  with_obs ~enabled:false (fun () ->
      let disk = Disk.create () in
      let bp = Buffer_pool.create ~capacity:2 disk in
      let pages = List.init 4 (fun _ -> Buffer_pool.alloc_page bp) in
      List.iter
        (fun pid -> Buffer_pool.with_page_mut bp pid (fun b -> Bytes.set b 0 'x'))
        pages;
      Buffer_pool.flush_all bp;
      let s = Buffer_pool.stats bp in
      Alcotest.(check bool) "work counted with obs off" true
        (s.Buffer_pool.logical_reads > 0 && s.Buffer_pool.physical_writes > 0);
      Buffer_pool.reset_stats bp;
      let z = Buffer_pool.stats bp in
      check Alcotest.int "logical reads zeroed" 0 z.Buffer_pool.logical_reads;
      check Alcotest.int "hits zeroed" 0 z.Buffer_pool.hits;
      check Alcotest.int "misses zeroed" 0 z.Buffer_pool.misses;
      check Alcotest.int "writes zeroed" 0 z.Buffer_pool.physical_writes;
      check Alcotest.int "evictions zeroed" 0 z.Buffer_pool.evictions;
      check Alcotest.int "disk writes zeroed too" 0 (Disk.stats disk).Disk.writes;
      (* The registry is the single source of truth: the same cells the
         stats record reads are the ones the registry resets. *)
      List.iter
        (fun c -> check Alcotest.int (Obs.Counter.name c ^ " zero") 0 (Obs.Counter.get c))
        (Obs.Registry.counters (Buffer_pool.metrics_registry bp)))

let test_phases_json_shape () =
  with_obs (fun () ->
      let wh = mk_wh (Xorshift.create 11) in
      ignore (Warehouse.refresh wh);
      let j = Json.parse (Obs.phases_json ()) in
      match j with
      | Json.Obj entries ->
        Alcotest.(check bool) "non-empty" true (entries <> []);
        List.iter
          (fun (name, v) ->
            match v with
            | Json.Obj fields ->
              List.iter
                (fun k ->
                  Alcotest.(check bool) (name ^ " has " ^ k) true (List.mem_assoc k fields))
                [ "count"; "total_ms"; "mean_ms"; "p99_ms" ]
            | _ -> Alcotest.fail (name ^ ": phase entry is not an object"))
          entries
      | _ -> Alcotest.fail "phases_json is not an object")

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "gauge initial value" `Quick test_gauge_initial;
    Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
    Alcotest.test_case "registry idempotent by name" `Quick test_registry_idempotent;
    Alcotest.test_case "to_json round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_render;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "refresh span nesting" `Quick test_refresh_span_nesting;
    Alcotest.test_case "crash aborts spans, never leaks" `Quick test_crash_spans_abort_not_leak;
    Alcotest.test_case "disabled observability is invisible" `Quick test_disabled_is_identical;
    Alcotest.test_case "buffer-pool reset through registry" `Quick test_pool_reset_via_registry;
    Alcotest.test_case "phases_json shape" `Quick test_phases_json_shape;
  ]
