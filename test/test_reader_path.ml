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

(* The record's base-cell bytes: what the cache snapshots and compares. *)
let cells_extended = Schema_ext.extended cells_ext

let cells_first = (Schema.cell_offsets cells_extended).(Schema_ext.base_index cells_ext 0)

let cells_width = Schema.width cells_base

let base_bytes (buf, off) = Bytes.sub buf (off + cells_first) cells_width

(* What the cache must return: the plain decode of the base bytes. *)
let plain bytes = Tuple.decode cells_base bytes

(* One record of [cells_ext]'s layout in a table of its own, slot 1
   stamped as a live insert at VN 1, with a writer of its base-cell bytes
   in place: the tests change only what the cache sees, never the
   record's visibility. *)
let cell_table =
  lazy
    (let pool = Buffer_pool.create ~capacity:4 (Vnl_storage.Disk.create ()) in
     let table = Table.create pool ~name:"cells" cells_extended in
     let base =
       [|
         Value.Int 1; Value.Date 0; Value.Float 0.0; Value.Str ""; Value.Str "c"; Value.Bool true;
       |]
     in
     ignore
       (Table.insert table (Schema_ext.fresh_insert cells_ext ~vn:1 (Tuple.unsafe_of_array base)));
     let page, off =
       Table.fold_raw table ~init:(-1, -1) ~f:(fun _ ~page ~slot:_ _ off -> (page, off))
     in
     let stamp =
       (Schema.cell_offsets cells_extended).(Schema_ext.tuple_vn_index cells_ext ~slot:1)
     in
     let write ~vn bytes =
       Buffer_pool.with_page_mut pool page (fun img ->
           Bytes.set_int32_le img (off + stamp) (Int32.of_int vn);
           Bytes.blit bytes 0 img (off + cells_first) cells_width)
     in
     (table, write))

let read_cell cache =
  let table, _ = Lazy.force cell_table in
  match Reader.visible_relation ~cache cells_ext ~session_vn:1 table with
  | [ row ] -> row
  | rows -> Alcotest.failf "the one-record table extracted %d rows" (List.length rows)

(* [vn] > 1 hides the record from the session at VN 1, as a refresh in
   progress does. *)
let write_cell ?(vn = 1) bytes = snd (Lazy.force cell_table) ~vn bytes

(* Fill a fresh cache from [snap], then read [live] through it twice.  A
   read must return the plain decode, hit (the filled row itself) exactly
   when the bytes are equal, and the refill must hit on its own bytes. *)
let hit_and_refill_exact ~hits ~misses (snap, live) =
  let cache = Reader.create_cache () in
  write_cell snap;
  let filled = read_cell cache in
  write_cell live;
  let row = read_cell cache in
  let again = read_cell cache in
  if row == filled then incr hits else incr misses;
  strict_tuple filled (plain snap)
  && strict_tuple row (plain live)
  && (row == filled) = Bytes.equal snap live
  && again == row

(* The record's base bytes with string cell [j] zeroed from byte [len]:
   bytes that differ from the record's only past a terminator, or that cut
   a string short. *)
let cut_string (buf, off) (j, len) =
  let b = base_bytes (buf, off) in
  let cell = (Schema.cell_offsets cells_base).(j)
  and width = Dtype.width (Schema.dtypes cells_base).(j) in
  if len < width then Bytes.fill b (cell + len) (width - len) '\000';
  b

(* The byte-diff refill against the plain decode, over stored records,
   torn ones and garbage included: the snapshot is the record's own bytes
   before a tear, another record's, or its bytes with a string cut
   short. *)
let test_cache_hit_is_exact () =
  let hits = ref 0 and misses = ref 0 in
  let refill =
    QCheck.Test.make ~name:"byte-diff refill = plain decode" ~count:3000
      (QCheck.make
         QCheck.Gen.(
           let* (b, off) = gen_record in
           let* snap =
             frequency
               [
                 (3, return (base_bytes (b, off)));
                 (1, map base_bytes gen_record);
                 (1, map (cut_string (b, off)) (pair (oneofl [ 3; 4 ]) (int_range 0 6)));
               ]
           in
           (* Tear the record after taking the snapshot. *)
           let+ tears = list_size (int_range 0 3) (pair (int_range 0 63) (int_range 0 255)) in
           let width = Schema.width cells_extended in
           List.iter (fun (i, c) -> Bytes.set b (off + (i mod width)) (Char.chr c)) tears;
           (snap, base_bytes (b, off))))
      (hit_and_refill_exact ~hits ~misses)
  in
  QCheck.Test.check_exn refill;
  Printf.printf "byte-diff refill: %d hits, %d refills\n" !hits !misses;
  Alcotest.(check bool) "the property saw hits" true (!hits > 500);
  Alcotest.(check bool) "the property saw refills" true (!misses > 500)

(* Raw bytes for one base cell, weighted to what a byte comparison must
   get right: both NULL sentinels (with garbage behind a string's), NUL
   inside a string and garbage after its terminator, full-width strings,
   distinct NaN payloads (all NULL), signed zeros and zero bytes. *)
let gen_cell_bytes dt =
  let open QCheck.Gen in
  let w = Dtype.width dt in
  let bytes_of f =
    let b = Bytes.make w '\000' in
    f b;
    b
  in
  let any = map Bytes.of_string (string_size ~gen:char (return w)) in
  match dt with
  | Dtype.Int | Dtype.Date ->
    oneof
      [
        return (bytes_of (fun b -> Bytes.set_int32_le b 0 Int32.min_int));
        return (Bytes.make w '\000');
        map
          (fun n -> bytes_of (fun b -> Bytes.set_int32_le b 0 (Int32.of_int n)))
          (int_range (-3) 3);
        any;
      ]
  | Dtype.Float ->
    let bits f = bytes_of (fun b -> Bytes.set_int64_le b 0 f) in
    oneof
      [
        map bits
          (oneofl [ 0x7ff8_0000_0000_0000L; 0x7ff8_0000_0000_0001L; 0xfff0_0000_0000_0001L ]);
        map bits (oneofl [ 0L; Int64.min_int; Int64.bits_of_float 1.5 ]);
        any;
      ]
  | Dtype.Str n ->
    let chr = map Char.chr (int_range 1 255) in
    let str len = map Bytes.of_string (string_size ~gen:chr (return len)) in
    oneof
      [
        map (fun b -> Bytes.set b 0 '\xff'; b) any;
        return (Bytes.make w '\000');
        str n;
        (* A string, its terminator, then garbage. *)
        (let* len = int_range 0 (n - 1) in
         let* s = str len and* tail = any in
         return
           (bytes_of (fun b ->
                Bytes.blit tail 0 b 0 w;
                Bytes.blit s 0 b 0 len;
                Bytes.set b len '\000')));
        (* A NUL inside the string's bytes. *)
        (let* b = str n and* i = int_range 0 (n - 1) in
         return (Bytes.set b i '\000'; b));
      ]
  | Dtype.Bool -> map (fun c -> Bytes.make 1 c) (oneof [ oneofl [ '\000'; '\001'; '\002' ]; char ])

let gen_base_bytes =
  QCheck.Gen.(
    map
      (fun cells -> Bytes.concat Bytes.empty (Array.to_list cells))
      (flatten_a (Array.map gen_cell_bytes (Schema.dtypes cells_base))))

(* [src] with each base cell replaced, with probability 1/3, by fresh
   bytes for that cell. *)
let gen_edit src =
  let open QCheck.Gen in
  let dts = Schema.dtypes cells_base and offs = Schema.cell_offsets cells_base in
  let+ cells =
    flatten_a (Array.map (fun dt -> pair (int_range 0 2) (gen_cell_bytes dt)) dts)
  in
  let b = Bytes.copy src in
  Array.iteri (fun j (p, c) -> if p = 0 then Bytes.blit c 0 b offs.(j) (Bytes.length c)) cells;
  b

let test_byte_snapshot_exact () =
  let hits = ref 0 and misses = ref 0 in
  let zero = Bytes.make cells_width '\000' in
  let prop =
    QCheck.Test.make ~name:"byte snapshot: hit and refill = plain decode" ~count:3000
      (QCheck.make
         QCheck.Gen.(
           let* snap = frequency [ (5, gen_base_bytes); (1, return zero) ] in
           let+ live =
             frequency
               [
                 (2, return (Bytes.copy snap));
                 (3, gen_edit snap);
                 (1, gen_base_bytes);
                 (1, return zero);
               ]
           in
           (snap, live)))
      (hit_and_refill_exact ~hits ~misses)
  in
  QCheck.Test.check_exn prop;
  Printf.printf "byte snapshots: %d hits, %d refills\n" !hits !misses;
  Alcotest.(check bool) "the property saw hits" true (!hits > 500);
  Alcotest.(check bool) "the property saw refills" true (!misses > 500)

(* A fill torn between a cell's copy and its decode: the scheduler parks
   the fill after it copied its first cell, and a writer rewrites the
   record (other cells, and a stamp that hides it from the session, as a
   refresh in progress does), so the torn attempt's retry skips the
   record.  The writer then puts the old bytes back, as an abort does.
   The fill decoded its snapshot, so the next read still equals the plain
   decode; one that decoded the frame would pair the old first cell's
   bytes with the new cell's value, and hit on it. *)
let test_torn_fill () =
  let encode n s b =
    Tuple.encode cells_base
      (Tuple.unsafe_of_array
         [| Value.Int n; Value.Date n; Value.Float 1.5; Value.Str s; Value.Str s; Value.Bool b |])
  in
  let old_bytes = encode 1 "o" false and new_bytes = encode 2 "n" true in
  let table, _ = Lazy.force cell_table in
  let torn = ref 0 in
  for seed = 1 to 12 do
    write_cell old_bytes;
    let cache = Reader.create_cache () in
    let reader_done = ref false in
    ignore
      (Sched.run ~seed
         [
           ( "reader",
             fun () ->
               ignore (Reader.visible_relation ~cache cells_ext ~session_vn:1 table);
               reader_done := true );
           ( "writer",
             fun () ->
               while (not !reader_done) && Reader.filling cache = 0 do
                 Sched.yield ()
               done;
               if Reader.filling cache > 0 then begin
                 incr torn;
                 write_cell ~vn:2 new_bytes
               end;
               while not !reader_done do
                 Sched.yield ()
               done;
               write_cell old_bytes );
         ]);
    Alcotest.(check bool) (Printf.sprintf "seed %d: the read after the abort = plain decode" seed)
      true
      (strict_tuple (read_cell cache) (plain old_bytes))
  done;
  Alcotest.(check bool) "some schedule tore a fill" true (!torn > 0)

(* The snapshot of a slot never filled is all zeros, as are the base bytes
   of a record of zero ints and dates, empty strings and [false]; that
   slot must still decode, not hit. *)
let test_never_filled_slot () =
  let zero = Bytes.make cells_width '\000' in
  write_cell zero;
  let misses = Obs.Registry.counter "reader.decode_cache_misses" in
  let was_enabled = !Obs.enabled in
  Obs.enabled := true;
  Fun.protect
    ~finally:(fun () -> Obs.enabled := was_enabled)
    (fun () ->
      let cache = Reader.create_cache () in
      let before = Obs.Counter.get misses in
      let row = read_cell cache in
      Alcotest.(check int) "the first read misses" 1 (Obs.Counter.get misses - before);
      Alcotest.(check bool) "and returns the zero record's decode" true
        (strict_tuple row (plain zero));
      Alcotest.(check bool) "which the next read hits" true (read_cell cache == row))

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

(* An extraction that shares nothing with the cache: each record decoded
   whole and classified by [Reader.extract], in scan order. *)
let reference ext ~session_vn table =
  let extended = Schema_ext.extended ext in
  List.rev
    (Table.fold_raw table ~init:[] ~f:(fun rows ~page:_ ~slot:_ img off ->
         match Reader.extract ext ~session_vn (Tuple.decode_from extended img off) with
         | Some row -> row :: rows
         | None -> rows))

let with_obs f =
  let was_enabled = !Obs.enabled in
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := was_enabled) f

(* One maintenance transaction adding 1 to [total_sales] of each of
   [rows]: an update changes that one base cell. *)
let bump_total_sales vnl ext rows =
  let base = Schema_ext.base ext in
  let j = Schema.index_of base "total_sales" in
  let m = Twovnl.Txn.begin_ vnl in
  List.iter
    (fun row ->
      let key = List.map (Tuple.get row) (Schema.key_indices base) in
      let total =
        match Tuple.get row j with
        | Value.Int v -> v
        | v -> Alcotest.failf "total_sales is %s" (Value.to_string v)
      in
      if
        not
          (Twovnl.Txn.update_by_key m ~table:"DailySales" ~key
             ~set:[ ("total_sales", Value.Int (total + 1)) ])
      then Alcotest.fail "an update missed its record")
    rows;
  Twovnl.Txn.commit m

(* A refill that raises part-way: the scheduler parks a reader inside the
   refill of an updated record (the changed cell already copied into the
   snapshot, the page's seqlock odd) and a killer task raises, which
   discontinues the reader there.  The page must be left even and the
   half-copied slot unusable, or its stale tuple would hit the new bytes:
   the next extraction equals the reference, and the one after hits every
   record. *)
let test_killed_fill () =
  let killed = ref 0 in
  let misses = Obs.Registry.counter "reader.decode_cache_misses" in
  with_obs (fun () ->
      for seed = 1 to 12 do
        let wh = small_warehouse 51 in
        let vnl = Warehouse.vnl wh in
        let h = Twovnl.handle_exn vnl "DailySales" in
        let ext = Twovnl.ext h and table = Twovnl.table h in
        let cache = Reader.create_cache () in
        let rows = Reader.visible_relation ~cache ext ~session_vn:(Twovnl.current_vn vnl) table in
        bump_total_sales vnl ext (List.filteri (fun i _ -> i mod 13 = seed mod 13) rows);
        let session_vn = Twovnl.current_vn vnl in
        let reader_done = ref false in
        (match
           Sched.run ~seed
             [
               ( "reader",
                 fun () ->
                   ignore (Reader.visible_relation ~cache ext ~session_vn table);
                   reader_done := true );
               ( "killer",
                 fun () ->
                   while (not !reader_done) && Reader.filling cache = 0 do
                     Sched.yield ()
                   done;
                   if Reader.filling cache > 0 then raise Injected );
             ]
         with
        | _ -> ()
        | exception Injected -> incr killed);
        let name fmt = Printf.sprintf ("seed %d: " ^^ fmt) seed in
        Alcotest.(check int) (name "no page left mid-fill") 0 (Reader.filling cache);
        let expected = reference ext ~session_vn table in
        Alcotest.(check bool) (name "the next extraction = reference") true
          (strict_rows expected (Reader.visible_relation ~cache ext ~session_vn table));
        let before = Obs.Counter.get misses in
        let rows = Reader.visible_relation ~cache ext ~session_vn table in
        Alcotest.(check int) (name "and the one after hits every record") 0
          (Obs.Counter.get misses - before);
        Alcotest.(check bool) (name "with the same rows") true (strict_rows expected rows)
      done);
  Alcotest.(check bool) "some schedule killed a fill part-way" true (!killed > 0)

(* Two readers share an empty cache while a refresh (odd seeds) or an
   aborted refresh (even seeds) rewrites the pages they fill.  Fills park
   mid-copy (the scheduler yields inside them), so a reader meets pages
   the other is filling, and the maintainer's writes tear optimistic
   attempts between a cell's copy and its decode.  Each reader reads at
   the VN current when its extraction starts; every extraction must equal
   the reference at that VN, and so must one through the cache after the
   race, when an abort has put back bytes a torn fill may have copied. *)
let test_two_readers_race_refresh () =
  let retries = ref 0 and parked = ref 0 in
  for seed = 1 to 12 do
    let wh = small_warehouse 61 in
    let vnl = Warehouse.vnl wh in
    let h = Twovnl.handle_exn vnl "DailySales" in
    let ext = Twovnl.ext h and table = Twovnl.table h in
    let cache = Reader.create_cache () in
    let rng = Xorshift.create seed in
    let seen = ref [] and finished = ref 0 in
    let reader () =
      for _ = 1 to 3 do
        let session_vn = Twovnl.current_vn vnl in
        seen := (session_vn, Reader.visible_relation ~cache ext ~session_vn table) :: !seen
      done;
      incr finished
    in
    let pool = Heap_file.buffer_pool (Table.heap table) in
    let retries0 = (Buffer_pool.stats pool).opt_retries in
    ignore
      (Sched.run ~seed
         [
           ("reader 1", reader);
           ("reader 2", reader);
           ( "maintainer",
             fun () ->
               queue_day wh rng ~day:7;
               if seed mod 2 = 1 then ignore (Warehouse.refresh wh)
               else
                 match
                   Warehouse.refresh wh ~on_phase:(fun p ~stripe:_ ->
                       if p = `Token then raise Injected)
                 with
                 | _ -> Alcotest.fail "the injected refresh failure did not fire"
                 | exception Injected -> () );
           ( "observer",
             fun () ->
               while !finished < 2 do
                 if Reader.filling cache > 0 then incr parked;
                 Sched.yield ()
               done );
         ]);
    retries := !retries + (Buffer_pool.stats pool).opt_retries - retries0;
    List.iter
      (fun (session_vn, rows) ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d, VN %d: extraction = reference" seed session_vn)
          true
          (strict_rows (reference ext ~session_vn table) rows))
      !seen;
    Alcotest.(check int) (Printf.sprintf "seed %d: no page left mid-fill" seed) 0
      (Reader.filling cache);
    let session_vn = Twovnl.current_vn vnl in
    Alcotest.(check bool) (Printf.sprintf "seed %d: after the race = reference" seed) true
      (strict_rows (reference ext ~session_vn table)
         (Reader.visible_relation ~cache ext ~session_vn table))
  done;
  Alcotest.(check bool) "some schedule tore an optimistic read" true (!retries > 0);
  Alcotest.(check bool) "some schedule ran a task during a fill" true (!parked > 0)

(* The cache costs its rows plus one snapshot block per page: at most a
   row's words, the snapshot's width and two words per slot.  A refill
   after a one-record update copies the changed cells into that block, so
   re-extracting allocates no page-sized block (which, over 256 words,
   would go straight to the major heap). *)
let test_cache_memory () =
  let vnl = fixture () in
  let h = Twovnl.handle_exn vnl "DailySales" in
  let ext = Twovnl.ext h and table = Twovnl.table h in
  let base = Schema_ext.base ext in
  let cache = Reader.create_cache () in
  let rows = Reader.visible_relation ~cache ext ~session_vn:(Twovnl.current_vn vnl) table in
  let heap = Table.heap table in
  let per_page = Heap_file.tuples_per_page heap in
  let slots = per_page * Heap_file.page_count heap and width = Schema.width base in
  let n = List.length rows in
  let row_words = Obj.reachable_words (Obj.repr (Array.of_list rows)) - (n + 1) in
  let words = Obj.reachable_words (Obj.repr cache) in
  let budget = row_words + ((((width + 7) / 8) + 2) * slots) in
  Printf.printf "cache: %d words over %d slots (rows %d words, budget %d)\n" words slots row_words
    budget;
  if words > budget then Alcotest.failf "the cache holds %d words (budget %d)" words budget;
  bump_total_sales vnl ext [ List.hd rows ];
  let session_vn = Twovnl.current_vn vnl in
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let after = Reader.visible_relation ~cache ext ~session_vn table in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (* Major words a minor collection did not promote: allocated there. *)
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  let page_words = per_page * width / 8 in
  Printf.printf "re-extraction after one update: %.0f minor words, %.0f major\n"
    (minor1 -. minor0) direct;
  Alcotest.(check bool) "the re-extraction equals the reference" true
    (strict_rows (reference ext ~session_vn table) after);
  if direct >= float_of_int page_words then
    Alcotest.failf "re-extracting after one update allocated %.0f major words (a page is %d)"
      direct page_words

(* Real domains: readers share the handle's cache (through
   [Session.read_table]) while a maintainer refreshes.  Each reader
   compares every session's memoized extraction with the reference at the
   same VN; a session that expired mid-way proves nothing and is skipped.
   The reader domain count and the repeats are the concurrency suites'
   VNL_STRESS_DOMAINS (default 2) and VNL_STRESS_REPS (default 3); all
   reps run before any verdict, so a failure reports how many failed. *)
let domains_round ~readers rep =
  let wh = small_warehouse (40 + rep) in
  let vnl = Warehouse.vnl wh in
  let h = Twovnl.handle_exn vnl "DailySales" in
  let ext = Twovnl.ext h and table = Twovnl.table h in
  let refreshes = 30 in
  let done_ = Atomic.make false in
  let results =
    Domain_pool.run ~domains:(readers + 1) (fun ~start rank ->
        start ();
        if rank = 0 then begin
          let rng = Xorshift.create (8 + rep) in
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
               let plain = reference ext ~session_vn:(Twovnl.Session.vn s) table in
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
  ( Array.fold_left (fun n (c, _) -> n + c) 0 results,
    Array.fold_left (fun n (_, m) -> n + m) 0 results )

let test_domains_share_one_cache () =
  let readers = Test_parallel_stress.stress_domains
  and reps = Test_parallel_stress.stress_reps in
  let failed = ref [] and total = ref 0 in
  for rep = 1 to reps do
    let compared, mismatched = domains_round ~readers rep in
    total := !total + compared;
    if compared < 3 * readers || mismatched > 0 then
      failed := (rep, compared, mismatched) :: !failed
  done;
  Printf.printf "%d reader domains, %d reps: %d sessions compared\n" readers reps !total;
  match List.rev !failed with
  | [] -> ()
  | (rep, compared, mismatched) :: _ ->
    Alcotest.failf
      "%d of %d reps failed (first: rep %d, %d sessions compared, %d cached extractions \
       differed from the reference)"
      (List.length !failed) reps rep compared mismatched

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
    Alcotest.test_case "byte snapshot: hit and refill = decode (QCheck)" `Quick
      test_byte_snapshot_exact;
    Alcotest.test_case "a never-filled slot does not hit on zero bytes" `Quick
      test_never_filled_slot;
    Alcotest.test_case "a fill torn between copy and decode" `Quick test_torn_fill;
    Alcotest.test_case "a fill killed part-way leaves the page fillable" `Quick test_killed_fill;
    Alcotest.test_case "two readers fill one cache racing a refresh" `Quick
      test_two_readers_race_refresh;
    Alcotest.test_case "cache memory: one snapshot block per page" `Quick test_cache_memory;
  ]
