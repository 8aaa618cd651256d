(* The reader path's allocation budget and its counting contract.

   A 2VNL reader is an ordinary query over the version it sees (§4.1), so
   a fresh rollup should cost what a query over a plain relation costs:
   decode each visible base tuple once and fold it into its group.  The
   budget below is what keeps a rollup's working set inside one minor
   heap — past that, every query promotes its half-built visible relation
   to the major heap. *)

module Tuple = Vnl_relation.Tuple
module Xorshift = Vnl_util.Xorshift
module Obs = Vnl_obs.Obs
module Sched = Vnl_util.Sched
module Twovnl = Vnl_core.Twovnl
module Reader = Vnl_core.Reader
module Warehouse = Vnl_warehouse.Warehouse
module Sales_gen = Vnl_workload.Sales_gen
module Table = Vnl_query.Table
module Buffer_pool = Vnl_storage.Buffer_pool
module Heap_file = Vnl_storage.Heap_file

let rollup = "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state"

(* OCaml 5's default minor heap, in words. *)
let default_minor_heap_words = 262_144

(* The seeded fixture: 40 days of 235 sales, about 3,500 DailySales
   groups — the shape of the paper's running example at benchmark size. *)
let fixture () =
  let wh = Warehouse.create [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.initial_load (Xorshift.create 7) ~days:40 ~sales_per_day:235);
  ignore (Warehouse.refresh wh);
  let vnl = Warehouse.vnl wh in
  (* Compile the rollup and warm the pool, in a session of its own. *)
  let s = Twovnl.Session.begin_ vnl in
  ignore (Twovnl.Session.query vnl s rollup);
  Twovnl.Session.end_ vnl s;
  vnl

let words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let test_rollup_allocation_budget () =
  let vnl = fixture () in
  let s = Twovnl.Session.begin_ vnl in
  let visible = List.length (Twovnl.Session.read_table vnl s "DailySales") in
  Twovnl.Session.end_ vnl s;
  let s = Twovnl.Session.begin_ vnl in
  let r, words = words_of (fun () -> Twovnl.Session.query vnl s rollup) in
  Twovnl.Session.end_ vnl s;
  Alcotest.(check bool) "fixture has thousands of visible rows" true (visible > 3_000);
  Alcotest.(check int) "one row per city" 12 (List.length r.Vnl_query.Executor.rows);
  let per_row = words /. float_of_int visible in
  Printf.printf "fresh rollup: %.0f words over %d visible rows (%.1f words/row)\n" words
    visible per_row;
  (* About 16 words a row: the base tuple's array, the list cell of the
     scan and of its one reversal, and the Int cells the scan's small cache
     misses; strings and dates are shared and grouping folds without
     allocating per row. *)
  if per_row > 20.0 then
    Alcotest.failf "fresh rollup allocates %.1f words per visible row (budget 20)" per_row;
  if words > float_of_int (default_minor_heap_words / 2) then
    Alcotest.failf "fresh rollup allocates %.0f words, over half the %d-word minor heap" words
      default_minor_heap_words

(* Optimistic reads re-run a page's decode when a mutator moves the page
   stamp; the discarded attempt must not count.  A toucher bumps every
   page's stamp (an exclusive latch with no change) while the scheduler
   interleaves it with extractions, forcing retries and latched fallbacks;
   every extraction must still return the same rows and count exactly one
   visibility decode per record. *)
let test_decodes_counted_once_under_retries () =
  let wh = Warehouse.create [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.initial_load (Xorshift.create 11) ~days:6 ~sales_per_day:60);
  ignore (Warehouse.refresh wh);
  let vnl = Warehouse.vnl wh in
  let h = Twovnl.handle_exn vnl "DailySales" in
  let table = Twovnl.table h and ext = Twovnl.ext h in
  let heap = Table.heap table in
  let pool = Heap_file.buffer_pool heap and pages = Heap_file.pages heap in
  let records = Table.tuple_count table and session_vn = Twovnl.current_vn vnl in
  let expected = Reader.visible_relation ext ~session_vn table in
  Alcotest.(check bool) "several pages" true (List.length pages > 2);
  let decodes = Obs.Registry.counter "reader.visibility_decodes" in
  let was_enabled = !Obs.enabled in
  Obs.enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.enabled := was_enabled)
    (fun () ->
      let retries = ref 0 in
      for seed = 1 to 30 do
        let before = Obs.Counter.get decodes and pool0 = Buffer_pool.stats pool in
        let results = ref [] in
        ignore
          (Sched.run ~seed
             [
               ( "reader",
                 fun () ->
                   for _ = 1 to 2 do
                     results := Reader.visible_relation ext ~session_vn table :: !results
                   done );
               ( "toucher",
                 fun () ->
                   List.iter
                     (fun pid ->
                       Buffer_pool.with_page_mut pool pid (fun _ -> ());
                       Sched.yield ())
                     (pages @ pages) );
             ]);
        List.iter
          (fun rows ->
            Alcotest.(check bool) (Printf.sprintf "seed %d: same rows" seed) true
              (List.equal Tuple.equal expected rows))
          !results;
        Alcotest.(check int)
          (Printf.sprintf "seed %d: one decode per record per extraction" seed)
          (2 * records)
          (Obs.Counter.get decodes - before);
        retries := !retries + (Buffer_pool.stats pool).opt_retries - pool0.opt_retries
      done;
      Alcotest.(check bool) "some schedule forced an optimistic retry" true (!retries > 0))

let suite =
  [
    Alcotest.test_case "fresh rollup allocation budget" `Quick test_rollup_allocation_budget;
    Alcotest.test_case "decodes counted once under retries" `Quick
      test_decodes_counted_once_under_retries;
  ]
