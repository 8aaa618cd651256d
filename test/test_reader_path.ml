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
module Value = Vnl_relation.Value
module Dtype = Vnl_relation.Dtype
module Schema = Vnl_relation.Schema
module Schema_ext = Vnl_core.Schema_ext
module Domain_pool = Vnl_util.Domain_pool

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

(* ---------- the decoded-record cache ---------- *)

(* Equality with no numeric coercion: [Value.equal] has [Int 1] equal to
   [Float 1.0] and [0.0] equal to [-0.0]; a cache hit must return exactly
   the decode, so floats compare by bits and constructors must agree. *)
let strict_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Float _, _ | _, Value.Float _ -> false
  | _ -> a = b

let strict_tuple a b =
  Tuple.arity a = Tuple.arity b && List.for_all2 strict_value (Tuple.values a) (Tuple.values b)

let strict_rows a b = List.length a = List.length b && List.for_all2 strict_tuple a b

(* Every cell type, with strings of both widths a record can hold. *)
let cells_base =
  Schema.make
    [
      Schema.attr ~key:true "k" Dtype.Int;
      Schema.attr "d" Dtype.Date;
      Schema.attr ~updatable:true "f" Dtype.Float;
      Schema.attr ~updatable:true "s" (Dtype.Str 6);
      Schema.attr "c" (Dtype.Str 1);
      Schema.attr "b" Dtype.Bool;
    ]

let cells_ext = Schema_ext.extend cells_base

(* Values a record can hold, weighted to the edges: NULL sentinels, empty
   and full-width strings, a string whose first byte is the NULL marker,
   signed zeros and the int32 extremes. *)
let gen_value dt =
  let open QCheck.Gen in
  match dt with
  | Dtype.Int | Dtype.Date ->
    let mk n = if dt = Dtype.Int then Value.Int n else Value.Date n in
    oneof
      [
        return Value.Null;
        map mk (oneofl [ 0; -1; 1; 0x7fff_ffff; -0x7fff_ffff ]);
        map mk (int_range (-1_000_000) 1_000_000);
      ]
  | Dtype.Float ->
    oneof
      [
        return Value.Null;
        map (fun f -> Value.Float f) (oneofl [ 0.0; -0.0; 1.5; infinity; neg_infinity ]);
        map (fun f -> Value.Float f) (float_range (-1e6) 1e6);
      ]
  | Dtype.Str n ->
    let chr = map Char.chr (int_range 1 255) in
    oneof
      [
        return Value.Null;
        return (Value.Str "");
        map (fun s -> Value.Str s) (string_size ~gen:chr (return n));
        map (fun s -> Value.Str s) (string_size ~gen:chr (int_range 0 n));
      ]
  | Dtype.Bool -> oneofl [ Value.Null; Value.Bool true; Value.Bool false ]

let gen_base =
  QCheck.Gen.flatten_a (Array.map gen_value (Schema.dtypes cells_base))

(* A stored record at a random offset of a larger buffer, as [extend]'s
   layout encodes it (slot 1 live), then torn: some bytes overwritten at
   random, or the whole record garbage. *)
let gen_record =
  let open QCheck.Gen in
  let width = Schema.width (Schema_ext.extended cells_ext) in
  let* base = gen_base and* pad = int_range 0 16 and* mode = int_range 0 9 in
  let buf = Bytes.make (width + pad + 16) '\000' in
  let tuple = Schema_ext.fresh_insert cells_ext ~vn:3 (Tuple.unsafe_of_array base) in
  Tuple.encode_into (Schema_ext.extended cells_ext) tuple buf pad;
  let+ tears = list_size (int_range 1 6) (pair (int_range 0 (width - 1)) (int_range 0 255))
  and+ garbage = string_size ~gen:char (return width) in
  if mode = 0 then Bytes.blit_string garbage 0 buf pad width
  else if mode <= 4 then
    List.iter (fun (i, c) -> Bytes.set buf (pad + i) (Char.chr c)) tears;
  (buf, pad)

(* Arbitrary hints: random values, one of them possibly of the wrong
   constructor or outside what a cell can hold, or a tuple of the wrong
   arity. *)
let gen_cached =
  let open QCheck.Gen in
  let wrong =
    oneofl
      [
        Value.Int 0;
        Value.Date 0;
        Value.Float nan;
        Value.Str "a\000b";
        Value.Str "toolongstr";
        Value.Bool false;
      ]
  in
  oneof
    [
      map (fun vs -> Tuple.unsafe_of_array vs) gen_base;
      map
        (fun (vs, (i, v)) ->
          let vs = Array.copy vs in
          vs.(i mod Array.length vs) <- v;
          Tuple.unsafe_of_array vs)
        (pair gen_base (pair nat wrong));
      return (Tuple.unsafe_of_array [| Value.Null |]);
    ]

let no_hint = Tuple.unsafe_of_array [||]

let decode ?(cached = no_hint) (buf, off) =
  Schema_ext.decode_visible cells_ext (Value.Intern.create ()) ~cached buf off

(* The record's decode with base string cell [j] replaced by the cell's
   raw bytes, cut at [len]: a NUL inside, or a byte past the terminator,
   is what a comparison that ignored [decode]'s terminator would accept. *)
let raw_string_hint (buf, off) (j, len) =
  let values = Array.of_list (Tuple.values (decode (buf, off))) in
  let extended = Schema_ext.extended cells_ext in
  let width = Dtype.width (Schema.dtypes extended).(2 + j) in
  let cell = off + (Schema.cell_offsets extended).(2 + j) in
  values.(j) <- Value.Str (Bytes.sub_string buf cell (min len width));
  Tuple.unsafe_of_array values

(* [decode_visible] with a cached tuple as its hint must return exactly
   the plain decode, whatever the hint, and the hint itself (a cache hit)
   only when that decode equals it. *)
let test_cache_hit_is_exact () =
  let hits = ref 0 and misses = ref 0 in
  let any_hint =
    QCheck.Test.make ~name:"decode_visible with any hint = plain decode" ~count:3000
      (QCheck.make
         QCheck.Gen.(
           let* (b, off) = gen_record in
           let* cached =
             frequency
               [
                 (3, return (decode (Bytes.copy b, off)));
                 (1, gen_cached);
                 (1, map (raw_string_hint (b, off)) (pair (oneofl [ 3; 4 ]) (int_range 0 6)));
               ]
           in
           (* Tear the record after taking its decode as the hint. *)
           let+ tears = list_size (int_range 0 3) (pair (int_range 0 63) (int_range 0 255)) in
           let width = Schema.width (Schema_ext.extended cells_ext) in
           List.iter (fun (i, c) -> Bytes.set b (off + (i mod width)) (Char.chr c)) tears;
           (b, off, cached)))
      (fun (buf, off, cached) ->
        let hinted = decode ~cached (buf, off) and plain = decode (buf, off) in
        if hinted == cached then incr hits else incr misses;
        strict_tuple hinted plain && (hinted != cached || strict_tuple cached plain))
  in
  (* A fresh decode always matches its own bytes, garbage included. *)
  let own =
    QCheck.Test.make ~name:"a fresh decode is a hit on its own bytes" ~count:3000
      (QCheck.make gen_record) (fun r ->
        let plain = decode r in
        decode ~cached:plain r == plain)
  in
  QCheck.Test.check_exn any_hint;
  QCheck.Test.check_exn own;
  Printf.printf "decode_visible hints: %d hits, %d misses\n" !hits !misses;
  Alcotest.(check bool) "the property saw hits" true (!hits > 500);
  Alcotest.(check bool) "the property saw misses" true (!misses > 500)

let small_warehouse seed =
  let wh = Warehouse.create [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.initial_load (Xorshift.create seed) ~days:6 ~sales_per_day:60);
  ignore (Warehouse.refresh wh);
  wh

let queue_day wh rng ~day =
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.gen_batch rng (Warehouse.source wh "DailySales") ~day ~inserts:20 ~updates:20
       ~deletes:12)

exception Injected

(* Extractions through one shared cache race a refresh, a garbage
   collection and an aborted refresh under seeded interleavings.  Each
   session's visible relation is fixed while it is valid, so every cached
   extraction must equal an uncached decode of the same table at the same
   session VN, taken before and again after the race; and a session begun
   after it, at the new VN, must read through the cache exactly what an
   uncached extraction reads. *)
let test_cache_races_maintenance () =
  let scenarios =
    [
      ( "refresh",
        fun wh rng ->
          queue_day wh rng ~day:7;
          ignore (Warehouse.refresh wh) );
      ("gc", fun wh _ -> ignore (Warehouse.collect_garbage wh));
      ( "abort",
        fun wh rng ->
          queue_day wh rng ~day:8;
          match
            Warehouse.refresh wh ~on_phase:(fun p ~stripe:_ -> if p = `Token then raise Injected)
          with
          | _ -> Alcotest.fail "the injected refresh failure did not fire"
          | exception Injected -> () );
    ]
  in
  List.iter
    (fun (what, maintain) ->
      let retries = ref 0 in
      for seed = 1 to 12 do
        let wh = small_warehouse 21 in
        let rng = Xorshift.create seed in
        (* Deleted groups for the collector to reclaim. *)
        queue_day wh rng ~day:7;
        ignore (Warehouse.refresh wh);
        let vnl = Warehouse.vnl wh in
        let h = Twovnl.handle_exn vnl "DailySales" in
        let ext = Twovnl.ext h and table = Twovnl.table h in
        let cache = Reader.create_cache () in
        let session_vn = Twovnl.current_vn vnl in
        let expected = Reader.visible_relation ext ~session_vn table in
        ignore (Reader.visible_relation ~cache ext ~session_vn table);
        let seen = ref [] in
        let pool = Heap_file.buffer_pool (Table.heap table) in
        let retries0 = (Buffer_pool.stats pool).opt_retries in
        ignore
          (Sched.run ~seed
             [
               ( "reader",
                 fun () ->
                   for _ = 1 to 3 do
                     seen := Reader.visible_relation ~cache ext ~session_vn table :: !seen
                   done );
               ("maintainer", fun () -> maintain wh rng);
             ]);
        retries := !retries + (Buffer_pool.stats pool).opt_retries - retries0;
        let name fmt = Printf.sprintf ("%s, seed %d: " ^^ fmt) what seed in
        List.iter
          (fun rows ->
            Alcotest.(check bool) (name "racing extraction = uncached decode") true
              (strict_rows expected rows))
          !seen;
        Alcotest.(check bool) (name "uncached decode unchanged by the race") true
          (strict_rows expected (Reader.visible_relation ext ~session_vn table));
        let now = Twovnl.current_vn vnl in
        Alcotest.(check bool) (name "new session: cached = uncached") true
          (strict_rows
             (Reader.visible_relation ext ~session_vn:now table)
             (Reader.visible_relation ~cache ext ~session_vn:now table))
      done;
      Alcotest.(check bool) (what ^ ": some schedule tore an optimistic read") true (!retries > 0))
    scenarios

(* The miss counter: a re-extraction of an unchanged table decodes
   nothing; after a refresh only the records it rewrote miss, and the
   next extraction is clean again. *)
let test_unchanged_table_has_no_misses () =
  let wh = small_warehouse 31 in
  let vnl = Warehouse.vnl wh in
  let h = Twovnl.handle_exn vnl "DailySales" in
  let table = Twovnl.table h in
  let misses = Obs.Registry.counter "reader.decode_cache_misses" in
  let was_enabled = !Obs.enabled in
  Obs.enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.enabled := was_enabled)
    (fun () ->
      let read () =
        let before = Obs.Counter.get misses in
        let s = Twovnl.Session.begin_ vnl in
        let rows = Twovnl.Session.read_table vnl s "DailySales" in
        Twovnl.Session.end_ vnl s;
        (List.length rows, Obs.Counter.get misses - before)
      in
      let visible, first = read () in
      Alcotest.(check int) "the first extraction decodes every visible record" visible first;
      Alcotest.(check int) "an unchanged table re-extracts with 0 misses" 0 (snd (read ()));
      let vn = Twovnl.current_vn vnl in
      queue_day wh (Xorshift.create 5) ~day:7;
      ignore (Warehouse.refresh wh);
      let rewritten =
        Table.fold_raw table ~init:0 ~f:(fun n ~page:_ ~slot:_ img off ->
            match Vnl_core.Maintenance.record_stamp (Twovnl.ext h) img off with
            | Some (tvn, (Vnl_core.Op.Insert | Vnl_core.Op.Update)) when tvn > vn -> n + 1
            | Some _ | None -> n)
      in
      let _, after = read () in
      Alcotest.(check bool) "the refresh rewrote some records" true (rewritten > 0);
      Alcotest.(check int) "only the rewritten live records miss" rewritten after;
      Alcotest.(check int) "and the next extraction is clean" 0 (snd (read ())))

(* A hit allocates only the row's list cells; a miss what a decode costs. *)
let test_extraction_allocation () =
  let vnl = fixture () in
  let h = Twovnl.handle_exn vnl "DailySales" in
  let ext = Twovnl.ext h and table = Twovnl.table h in
  let session_vn = Twovnl.current_vn vnl in
  let cache = Reader.create_cache () in
  let rows, cold = words_of (fun () -> Reader.visible_relation ~cache ext ~session_vn table) in
  let _, warm = words_of (fun () -> Reader.visible_relation ~cache ext ~session_vn table) in
  let n = float_of_int (List.length rows) in
  Printf.printf "extraction: %.1f words/row filling the cache, %.1f on hits\n" (cold /. n)
    (warm /. n);
  if cold /. n > 20.0 then
    Alcotest.failf "a filling extraction allocates %.1f words per row (budget 20)" (cold /. n);
  if warm /. n > 8.0 then
    Alcotest.failf "a cached extraction allocates %.1f words per row (budget 8)" (warm /. n)

(* Real domains: readers share the handle's cache (through
   [Session.read_table]) while a maintainer refreshes.  Each reader
   compares every session's memoized extraction with an uncached one at
   the same VN; a session that expired mid-way proves nothing and is
   skipped.  The reader domain count is the concurrency suites'
   VNL_STRESS_DOMAINS (default 2). *)
let test_domains_share_one_cache () =
  let stress_domains = Test_parallel_stress.stress_domains in
  let wh = small_warehouse 41 in
  let vnl = Warehouse.vnl wh in
  let h = Twovnl.handle_exn vnl "DailySales" in
  let ext = Twovnl.ext h and table = Twovnl.table h in
  let refreshes = 30 in
  let done_ = Atomic.make false in
  let results =
    Domain_pool.run ~domains:(stress_domains + 1) (fun ~start rank ->
        start ();
        if rank = 0 then begin
          let rng = Xorshift.create 9 in
          for day = 7 to 6 + refreshes do
            queue_day wh rng ~day;
            ignore (Warehouse.refresh wh);
            if day mod 3 = 0 then ignore (Warehouse.collect_garbage wh)
          done;
          Atomic.set done_ true;
          (0, 0)
        end
        else begin
          let compared = ref 0 and mismatched = ref 0 in
          while not (Atomic.get done_) || !compared < 3 do
            let s = Twovnl.Session.begin_ vnl in
            (match
               let cached = Twovnl.Session.read_table vnl s "DailySales" in
               let plain = Reader.visible_relation ext ~session_vn:(Twovnl.Session.vn s) table in
               (cached, plain)
             with
            | cached, plain when Twovnl.Session.is_valid vnl s ->
              incr compared;
              if not (strict_rows cached plain) then incr mismatched
            | _ -> ()
            | exception (Twovnl.Expired _ | Reader.Session_expired _) -> ());
            Twovnl.Session.end_ vnl s
          done;
          (!compared, !mismatched)
        end)
  in
  let compared = Array.fold_left (fun n (c, _) -> n + c) 0 results in
  let mismatched = Array.fold_left (fun n (_, m) -> n + m) 0 results in
  Printf.printf "%d reader domains: %d sessions compared\n" stress_domains compared;
  Alcotest.(check bool) "readers compared sessions" true (compared >= 3 * stress_domains);
  Alcotest.(check int) "cached extractions equal uncached ones" 0 mismatched

let suite =
  [
    Alcotest.test_case "fresh rollup allocation budget" `Quick test_rollup_allocation_budget;
    Alcotest.test_case "decodes counted once under retries" `Quick
      test_decodes_counted_once_under_retries;
    Alcotest.test_case "cache hit is exactly the decode (QCheck)" `Quick test_cache_hit_is_exact;
    Alcotest.test_case "cached extraction races refresh, gc, abort" `Quick
      test_cache_races_maintenance;
    Alcotest.test_case "unchanged table re-extracts with 0 misses" `Quick
      test_unchanged_table_has_no_misses;
    Alcotest.test_case "extraction allocation, cold and cached" `Quick test_extraction_allocation;
    Alcotest.test_case "reader domains share one cache" `Quick test_domains_share_one_cache;
  ]
