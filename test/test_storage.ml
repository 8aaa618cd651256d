(* Unit and property tests for Vnl_storage: disk, pages, buffer pool, heap files. *)

module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Disk = Vnl_storage.Disk
module Page = Vnl_storage.Page
module Buffer_pool = Vnl_storage.Buffer_pool
module Heap_file = Vnl_storage.Heap_file
module Latch = Vnl_storage.Latch

let check = Alcotest.check

let small_schema =
  Schema.make [ Schema.attr ~key:true "id" Dtype.Int; Schema.attr ~updatable:true "v" Dtype.Int ]

let mk_tuple id v = Tuple.make small_schema [ Value.Int id; Value.Int v ]

let test_disk_alloc_read_write () =
  let d = Disk.create ~page_size:256 () in
  let p0 = Disk.alloc d in
  check Alcotest.int "first page id" 0 p0;
  let img = Bytes.make 256 'x' in
  Disk.write d p0 img;
  let back = Disk.read d p0 in
  Alcotest.(check bool) "roundtrip" true (Bytes.equal img back);
  let s = Disk.stats d in
  check Alcotest.int "reads" 1 s.Disk.reads;
  check Alcotest.int "writes" 1 s.Disk.writes

let test_disk_bad_page () =
  let d = Disk.create () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Disk.read d 3);
       false
     with Invalid_argument _ -> true)

let test_disk_many_pages () =
  let d = Disk.create ~page_size:64 () in
  for i = 0 to 99 do
    check Alcotest.int "sequential ids" i (Disk.alloc d)
  done;
  check Alcotest.int "count" 100 (Disk.page_count d)

(* ---------- checksums and fault injection ---------- *)

let test_disk_checksum_roundtrip () =
  let d = Disk.create ~page_size:128 () in
  Alcotest.(check bool) "checksums default on" true (Disk.checksums_enabled d);
  let p = Disk.alloc d in
  Alcotest.(check bool) "fresh page verifies" true (Disk.verify d p);
  Disk.write d p (Bytes.make 128 'q');
  Alcotest.(check bool) "written page verifies" true (Disk.verify d p);
  ignore (Disk.read d p)

let test_disk_crash_at_write_k () =
  let d = Disk.create ~page_size:64 () in
  let p0 = Disk.alloc d and p1 = Disk.alloc d in
  Disk.write d p0 (Bytes.make 64 'a');
  Disk.set_faults d { Disk.no_faults with crash_at_write = Some 2 };
  Disk.write d p1 (Bytes.make 64 'b');
  (* Write 1 since arming succeeded; write 2 must crash without applying. *)
  Alcotest.(check bool) "second write crashes" true
    (try
       Disk.write d p0 (Bytes.make 64 'c');
       false
     with Disk.Crash _ -> true);
  Disk.clear_faults d;
  check Alcotest.char "crashing write not applied" 'a' (Bytes.get (Disk.read d p0) 0);
  check Alcotest.char "pre-crash write applied" 'b' (Bytes.get (Disk.read d p1) 0)

let test_disk_torn_write_detected () =
  let d = Disk.create ~page_size:64 () in
  let p = Disk.alloc d in
  Disk.write d p (Bytes.make 64 'o');
  Disk.set_faults d { Disk.no_faults with crash_at_write = Some 1; torn_prefix = 10 };
  Alcotest.(check bool) "torn write crashes" true
    (try
       Disk.write d p (Bytes.make 64 'n');
       false
     with Disk.Crash _ -> true);
  Disk.clear_faults d;
  Alcotest.(check bool) "torn page fails verify" false (Disk.verify d p);
  Alcotest.(check bool) "torn page detected on read" true
    (try
       ignore (Disk.read d p);
       false
     with Disk.Corrupt_page _ -> true)

let test_disk_full_prefix_write_is_complete () =
  let d = Disk.create ~page_size:64 () in
  let p = Disk.alloc d in
  Disk.write d p (Bytes.make 64 'o');
  Disk.set_faults d { Disk.no_faults with crash_at_write = Some 1; torn_prefix = 64 };
  (try Disk.write d p (Bytes.make 64 'n') with Disk.Crash _ -> ());
  Disk.clear_faults d;
  (* The full image landed, checksum included: valid and new. *)
  check Alcotest.char "write completed before crash" 'n' (Bytes.get (Disk.read d p) 0)

let test_disk_injected_read_failure () =
  let d = Disk.create ~page_size:64 () in
  let p0 = Disk.alloc d and p1 = Disk.alloc d in
  Disk.set_faults d { Disk.no_faults with fail_read_pids = [ p1 ] };
  ignore (Disk.read d p0);
  Alcotest.(check bool) "read of failed page raises" true
    (try
       ignore (Disk.read d p1);
       false
     with Disk.Crash _ -> true);
  Disk.clear_faults d;
  ignore (Disk.read d p1)

let test_disk_clone_independent () =
  let d = Disk.create ~page_size:64 () in
  let p = Disk.alloc d in
  Disk.write d p (Bytes.make 64 'x');
  let c = Disk.clone d in
  Disk.write d p (Bytes.make 64 'y');
  check Alcotest.char "clone keeps old image" 'x' (Bytes.get (Disk.read c p) 0);
  check Alcotest.char "original has new image" 'y' (Bytes.get (Disk.read d p) 0);
  Alcotest.(check bool) "clone verifies" true (Disk.verify c p)

(* [write] copies into the page's existing image instead of a fresh one.
   The disk must still own its bytes: a caller reusing its buffer, a clone
   on either side of the write, and a later torn write all see exactly what
   a copying write would give them, and the I/O counters count as before. *)
let test_disk_write_in_place () =
  let d = Disk.create ~page_size:64 () in
  let p0 = Disk.alloc d and p1 = Disk.alloc d in
  let buf = Bytes.make 64 'a' in
  Disk.write d p0 buf;
  Bytes.fill buf 0 64 'z';
  check Alcotest.char "caller's buffer not aliased" 'a' (Bytes.get (Disk.read d p0) 0);
  Disk.write d p0 buf;
  let c = Disk.clone d in
  Disk.write d p0 (Bytes.make 64 'b');
  check Alcotest.char "clone before write keeps its image" 'z' (Bytes.get (Disk.read c p0) 0);
  Disk.write c p0 (Bytes.make 64 'c');
  check Alcotest.char "write to clone stays there" 'b' (Bytes.get (Disk.read d p0) 0);
  check Alcotest.char "clone has its own write" 'c' (Bytes.get (Disk.read c p0) 0);
  Disk.write d p1 (Bytes.make 64 'e');
  let s = Disk.stats d in
  check Alcotest.int "reads" 2 s.Disk.reads;
  check Alcotest.int "writes" 4 s.Disk.writes;
  check Alcotest.int "seq writes" 4 s.Disk.seq_writes;
  check Alcotest.int "rand writes" 0 s.Disk.rand_writes;
  Disk.write d p0 (Bytes.make 64 'f');
  check Alcotest.int "back to page 0 seeks" 1 (Disk.stats d).Disk.rand_writes;
  (* Page 0 has been overwritten in place several times; a tear on it must
     still be caught by its checksum. *)
  Disk.set_faults d { Disk.no_faults with crash_at_write = Some 1; torn_prefix = 10 };
  Alcotest.(check bool) "torn write crashes" true
    (match Disk.write d p0 (Bytes.make 64 'g') with () -> false | exception Disk.Crash _ -> true);
  Disk.clear_faults d;
  Alcotest.(check bool) "torn page fails verify" false (Disk.verify d p0);
  Alcotest.(check bool) "torn page detected on read" true
    (match Disk.read d p0 with _ -> false | exception Disk.Corrupt_page _ -> true);
  check Alcotest.char "clone untouched by the tear" 'c' (Bytes.get (Disk.read c p0) 0)

let test_disk_checksums_off () =
  let d = Disk.create ~page_size:64 ~checksums:false () in
  let p = Disk.alloc d in
  Disk.write d p (Bytes.make 64 'o');
  Disk.set_faults d { Disk.no_faults with crash_at_write = Some 1; torn_prefix = 7 };
  (try Disk.write d p (Bytes.make 64 'n') with Disk.Crash _ -> ());
  Disk.clear_faults d;
  (* No checksum to catch the tear: the mixed page decodes silently — the
     behavior the checksum layer exists to prevent. *)
  Alcotest.(check bool) "verify is vacuous" true (Disk.verify d p);
  let img = Disk.read d p in
  check Alcotest.char "prefix is new" 'n' (Bytes.get img 0);
  check Alcotest.char "tail is old" 'o' (Bytes.get img 63)

(* ---------- seq/rand classification after reset_stats ---------- *)

(* Pins down the head position after [reset_stats]: before page 0.  The
   first post-reset write is sequential iff it lands on page 0 — what the
   ascending flush tests (and bench comparability across PRs) rely on. *)
let test_disk_first_write_after_reset () =
  let d = Disk.create ~page_size:64 () in
  for _ = 1 to 4 do
    ignore (Disk.alloc d)
  done;
  Disk.reset_stats d;
  Disk.write d 0 (Bytes.make 64 'a');
  let s = Disk.stats d in
  check Alcotest.int "write to page 0 is sequential" 1 s.Disk.seq_writes;
  check Alcotest.int "no random writes yet" 0 s.Disk.rand_writes;
  Disk.reset_stats d;
  Disk.write d 2 (Bytes.make 64 'b');
  let s = Disk.stats d in
  check Alcotest.int "write to page 2 is random" 1 s.Disk.rand_writes;
  check Alcotest.int "not sequential" 0 s.Disk.seq_writes

let test_pool_first_writeback_after_reset () =
  let d = Disk.create ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity:8 d in
  for _ = 1 to 4 do
    ignore (Buffer_pool.alloc_page pool)
  done;
  Buffer_pool.with_page_mut pool 0 (fun img -> Bytes.set img 0 'a');
  Buffer_pool.reset_stats pool;
  Buffer_pool.flush_all pool;
  check Alcotest.int "first write-back to page 0 is sequential" 1
    (Buffer_pool.stats pool).Buffer_pool.seq_writes;
  Buffer_pool.with_page_mut pool 3 (fun img -> Bytes.set img 0 'b');
  Buffer_pool.reset_stats pool;
  Buffer_pool.flush_all pool;
  let s = Buffer_pool.stats pool in
  check Alcotest.int "first write-back to page 3 is random" 1 s.Buffer_pool.rand_writes;
  check Alcotest.int "and not sequential" 0 s.Buffer_pool.seq_writes

(* ---------- pinning ---------- *)

(* Regression: at capacity 2, a nested page access used to evict the frame
   the outer callback was mutating, silently losing the mutation to a stale
   re-read.  Pinned frames are no longer eviction victims. *)
let test_pool_pin_survives_nested_access () =
  let d = Disk.create ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let p0 = Buffer_pool.alloc_page pool in
  let p1 = Buffer_pool.alloc_page pool in
  let p2 = Buffer_pool.alloc_page pool in
  Buffer_pool.drop_cache pool;
  Buffer_pool.with_page_mut pool p0 (fun img ->
      (* Load two other pages: the second forces an eviction, which must
         pick p1, not the pinned p0. *)
      Buffer_pool.with_page pool p1 (fun _ -> ());
      Buffer_pool.with_page pool p2 (fun _ -> ());
      Bytes.set img 0 'M');
  Buffer_pool.flush_all pool;
  check Alcotest.char "outer mutation reached disk" 'M' (Bytes.get (Disk.read d p0) 0)

let test_pool_all_pinned_raises () =
  let d = Disk.create ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity:1 d in
  let p0 = Buffer_pool.alloc_page pool in
  let p1 = Buffer_pool.alloc_page pool in
  Buffer_pool.drop_cache pool;
  Buffer_pool.with_page_mut pool p0 (fun img ->
      Bytes.set img 0 'K';
      (* The only frame is pinned: loading another page must fail loudly
         rather than evict it. *)
      Alcotest.(check bool) "nested load with all frames pinned raises" true
        (try
           Buffer_pool.with_page pool p1 (fun _ -> ());
           false
         with Failure _ -> true);
      Bytes.set img 1 'L');
  Buffer_pool.flush_all pool;
  let img = Disk.read d p0 in
  check Alcotest.char "mutation before the raise persisted" 'K' (Bytes.get img 0);
  check Alcotest.char "mutation after the raise persisted" 'L' (Bytes.get img 1)

let test_pool_unpinned_after_callback () =
  let d = Disk.create ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity:1 d in
  let p0 = Buffer_pool.alloc_page pool in
  let p1 = Buffer_pool.alloc_page pool in
  Buffer_pool.drop_cache pool;
  Buffer_pool.with_page pool p0 (fun _ -> ());
  (* Pin released: the frame is evictable again. *)
  Buffer_pool.with_page pool p1 (fun _ -> ());
  Buffer_pool.with_page pool p0 (fun _ -> ());
  (* And the pin is released on exception too. *)
  (try Buffer_pool.with_page pool p1 (fun _ -> failwith "boom") with Failure _ -> ());
  Buffer_pool.with_page pool p0 (fun _ -> ())

let test_page_layout () =
  let l = Page.layout ~page_size:4096 ~record_width:51 in
  (* 4 header bytes + 51+1 per record: floor(4092/52) = 78 slots. *)
  check Alcotest.int "slots" 78 l.Page.slots

let test_page_slots () =
  let l = Page.layout ~page_size:256 ~record_width:10 in
  let page = Bytes.create 256 in
  Page.init l page;
  check Alcotest.int "all free" 0 (Page.used_count l page);
  let rec0 = Bytes.make 10 'a' in
  Page.write_slot_with l page 0 (fun img off -> Bytes.blit rec0 0 img off 10);
  Alcotest.(check bool) "slot used" true (Page.slot_used l page 0);
  Alcotest.(check bool) "readback" true (Bytes.equal rec0 (Page.read_slot l page 0));
  check Alcotest.int "used count" 1 (Page.used_count l page);
  check (Alcotest.option Alcotest.int) "next free" (Some 1) (Page.first_free_slot l page);
  Page.clear_slot l page 0;
  check Alcotest.int "freed" 0 (Page.used_count l page)

let test_page_overwrite_in_place () =
  let l = Page.layout ~page_size:256 ~record_width:4 in
  let page = Bytes.create 256 in
  Page.init l page;
  Page.write_slot_with l page 3 (fun img off -> Bytes.blit_string "aaaa" 0 img off 4);
  Page.write_slot_with l page 3 (fun img off -> Bytes.blit_string "bbbb" 0 img off 4);
  Alcotest.(check bool) "overwritten" true
    (Bytes.equal (Bytes.of_string "bbbb") (Page.read_slot l page 3));
  check Alcotest.int "still one record" 1 (Page.used_count l page)

let test_page_record_too_large () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Page.layout ~page_size:64 ~record_width:100);
       false
     with Invalid_argument _ -> true)

let test_pool_hit_miss () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let p0 = Buffer_pool.alloc_page pool in
  let p1 = Buffer_pool.alloc_page pool in
  let p2 = Buffer_pool.alloc_page pool in
  (* Capacity 2: p0 was evicted by p2's arrival. *)
  Buffer_pool.with_page pool p1 (fun _ -> ());
  Buffer_pool.with_page pool p2 (fun _ -> ());
  let before = (Buffer_pool.stats pool).Buffer_pool.misses in
  Buffer_pool.with_page pool p0 (fun _ -> ());
  let after = (Buffer_pool.stats pool).Buffer_pool.misses in
  check Alcotest.int "cold access misses" (before + 1) after

let test_pool_dirty_writeback () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:4 d in
  let p0 = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page_mut pool p0 (fun img -> Bytes.set img 0 'Z');
  Buffer_pool.flush_all pool;
  let img = Disk.read d p0 in
  check Alcotest.char "persisted" 'Z' (Bytes.get img 0)

let test_pool_eviction_persists_dirty () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:1 d in
  let p0 = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page_mut pool p0 (fun img -> Bytes.set img 0 'Q');
  let _p1 = Buffer_pool.alloc_page pool in
  (* p0 must have been evicted and written back. *)
  let img = Disk.read d p0 in
  check Alcotest.char "evicted dirty page persisted" 'Q' (Bytes.get img 0)

let test_pool_drop_cache_cold () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:8 d in
  let p0 = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page pool p0 (fun _ -> ());
  Buffer_pool.drop_cache pool;
  Buffer_pool.reset_stats pool;
  Buffer_pool.with_page pool p0 (fun _ -> ());
  check Alcotest.int "one miss after drop" 1 (Buffer_pool.stats pool).Buffer_pool.misses

let test_pool_reset_stats_zeroes () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let p0 = Buffer_pool.alloc_page pool in
  let p1 = Buffer_pool.alloc_page pool in
  let p2 = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page_mut pool p0 (fun img -> Bytes.set img 0 'a');
  Buffer_pool.with_page pool p1 (fun _ -> ());
  Buffer_pool.with_page pool p2 (fun _ -> ());
  Buffer_pool.flush_all pool;
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "counters accumulated" true
    (s.Buffer_pool.logical_reads > 0 && s.Buffer_pool.physical_writes > 0);
  Buffer_pool.reset_stats pool;
  let z = Buffer_pool.stats pool in
  check Alcotest.int "logical reads zeroed" 0 z.Buffer_pool.logical_reads;
  check Alcotest.int "hits zeroed" 0 z.Buffer_pool.hits;
  check Alcotest.int "misses zeroed" 0 z.Buffer_pool.misses;
  check Alcotest.int "evictions zeroed" 0 z.Buffer_pool.evictions;
  check Alcotest.int "physical writes zeroed" 0 z.Buffer_pool.physical_writes;
  let ds = Disk.stats d in
  check Alcotest.int "disk reads zeroed" 0 ds.Disk.reads;
  check Alcotest.int "disk writes zeroed" 0 ds.Disk.writes;
  (* reset_stats keeps pages resident: a re-read is still a hit ... *)
  Buffer_pool.with_page pool p2 (fun _ -> ());
  check Alcotest.int "cache stays warm" 1 (Buffer_pool.stats pool).Buffer_pool.hits;
  (* ... while drop_cache + reset_stats makes the next read a cold miss. *)
  Buffer_pool.drop_cache pool;
  Buffer_pool.reset_stats pool;
  Buffer_pool.with_page pool p2 (fun _ -> ());
  check Alcotest.int "cold after drop" 1 (Buffer_pool.stats pool).Buffer_pool.misses

let test_pool_drop_cache_flushes_dirty () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:4 d in
  let p0 = Buffer_pool.alloc_page pool in
  Buffer_pool.with_page_mut pool p0 (fun img -> Bytes.set img 0 'D');
  Buffer_pool.drop_cache pool;
  (* No flush_all: drop_cache itself must have written the dirty frame. *)
  check Alcotest.char "dirty frame persisted" 'D' (Bytes.get (Disk.read d p0) 0);
  Buffer_pool.with_page pool p0 (fun img ->
      check Alcotest.char "reload sees the write" 'D' (Bytes.get img 0))

let test_pool_lru_victim_order () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let p0 = Buffer_pool.alloc_page pool in
  let p1 = Buffer_pool.alloc_page pool in
  (* Touch p0 so p1 becomes least recently used, then overflow. *)
  Buffer_pool.with_page pool p0 (fun _ -> ());
  let _p2 = Buffer_pool.alloc_page pool in
  Buffer_pool.reset_stats pool;
  Buffer_pool.with_page pool p0 (fun _ -> ());
  check Alcotest.int "recently touched page stayed resident" 0
    (Buffer_pool.stats pool).Buffer_pool.misses;
  Buffer_pool.with_page pool p1 (fun _ -> ());
  check Alcotest.int "LRU page was the victim" 1 (Buffer_pool.stats pool).Buffer_pool.misses

let test_flush_all_ascending_pid () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:16 d in
  let n = 8 in
  for _ = 1 to n do
    ignore (Buffer_pool.alloc_page pool)
  done;
  (* Dirty the pages in scrambled order; the flush order must not follow it. *)
  List.iter
    (fun p -> Buffer_pool.with_page_mut pool p (fun img -> Bytes.set img 0 'x'))
    [ 5; 2; 7; 0; 3; 6; 1; 4 ];
  Buffer_pool.reset_stats pool;
  Buffer_pool.flush_all pool;
  let s = Buffer_pool.stats pool in
  check Alcotest.int "one write per dirty page" n s.Buffer_pool.physical_writes;
  check Alcotest.int "ascending pid: every write sequential" n s.Buffer_pool.seq_writes;
  check Alcotest.int "no seeks" 0 s.Buffer_pool.rand_writes;
  let ds = Disk.stats d in
  check Alcotest.int "disk agrees" n ds.Disk.seq_writes;
  check Alcotest.int "disk random" 0 ds.Disk.rand_writes;
  (* A second flush has nothing dirty left to write. *)
  Buffer_pool.flush_all pool;
  check Alcotest.int "flush idempotent" n (Buffer_pool.stats pool).Buffer_pool.physical_writes

let test_drop_cache_ascending_pid () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:16 d in
  for _ = 1 to 6 do
    ignore (Buffer_pool.alloc_page pool)
  done;
  List.iter
    (fun p -> Buffer_pool.with_page_mut pool p (fun img -> Bytes.set img 0 'y'))
    [ 4; 1; 5; 0; 2; 3 ];
  Buffer_pool.reset_stats pool;
  Buffer_pool.drop_cache pool;
  let s = Buffer_pool.stats pool in
  check Alcotest.int "drop_cache flush is sequential" 6 s.Buffer_pool.seq_writes;
  check Alcotest.int "drop_cache flush has no seeks" 0 s.Buffer_pool.rand_writes

(* ---------- scan ring, victim-buffer reuse, read faults ---------- *)

module Sched = Vnl_util.Sched

(* A heap of exactly [pages] full pages over [pool]. *)
let heap_with_pages pool pages =
  let h = Heap_file.create pool small_schema in
  for id = 1 to pages * Heap_file.tuples_per_page h do
    ignore (Heap_file.insert h (mk_tuple id id))
  done;
  h

let scan_count h =
  Heap_file.fold_pages h ~init:0 ~f:(fun acc ~page:_ _img iter ->
      let n = ref acc in
      iter (fun _slot _off -> incr n);
      !n)

(* Scanning N > C pages through C frames is LRU's worst case: each page
   evicts the page the next scan needs first, so plain LRU hits nothing.
   The scan ring sends the misses to the cold end, so they recycle one
   frame and the others keep their pages from scan to scan. *)
let test_pool_scan_ring_resists_large_scans () =
  let c = 6 and n = 15 in
  let pool = Buffer_pool.create ~capacity:c (Disk.create ~page_size:256 ()) in
  let h = heap_with_pages pool n in
  check Alcotest.int "table larger than the pool" n (Heap_file.page_count h);
  check Alcotest.int "first scan sees every record" (Heap_file.tuple_count h) (scan_count h);
  for round = 2 to 5 do
    Buffer_pool.reset_stats pool;
    check Alcotest.int "scan sees every record" (Heap_file.tuple_count h) (scan_count h);
    let s = Buffer_pool.stats pool in
    check Alcotest.int "every page read once" n s.Buffer_pool.logical_reads;
    if s.Buffer_pool.hits < c - 2 then
      Alcotest.failf "scan %d hit %d pages through %d frames, want >= %d" round
        s.Buffer_pool.hits c (c - 2)
  done

(* A scanned table that fits the pool keeps plain LRU: its misses enter
   at the MRU end, so an unrelated page is the next victim, not them. *)
let test_pool_small_scan_keeps_lru () =
  let c = 4 in
  let pool = Buffer_pool.create ~capacity:c (Disk.create ~page_size:256 ()) in
  let h = heap_with_pages pool (c - 1) in
  let x = Buffer_pool.alloc_page pool in
  Buffer_pool.drop_cache pool;
  Buffer_pool.with_page pool x (fun _ -> ());
  ignore (scan_count h);
  ignore (Buffer_pool.alloc_page pool);
  Buffer_pool.reset_stats pool;
  ignore (scan_count h);
  check Alcotest.int "the table survived the next eviction" 0
    (Buffer_pool.stats pool).Buffer_pool.misses;
  Buffer_pool.with_page pool x (fun _ -> ());
  check Alcotest.int "the LRU page was the victim" 1 (Buffer_pool.stats pool).Buffer_pool.misses

(* Maintenance reads a page (latch-free) and then writes it, with other
   reads in between.  The write must hit: only scans recycle the cold
   end, plain reads stay on the LRU path. *)
let test_pool_read_then_write_misses_once () =
  let pool = Buffer_pool.create ~capacity:4 (Disk.create ~page_size:128 ()) in
  let pids = Array.init 12 (fun _ -> Buffer_pool.alloc_page pool) in
  Buffer_pool.drop_cache pool;
  Buffer_pool.reset_stats pool;
  for i = 0 to 5 do
    let target = pids.(i) and other = pids.(6 + i) in
    ignore (Buffer_pool.read_page pool target (fun img -> Bytes.get img 0));
    ignore (Buffer_pool.read_page pool other (fun img -> Bytes.get img 0));
    Buffer_pool.with_page_mut pool target (fun img -> Bytes.set img 0 'w')
  done;
  let s = Buffer_pool.stats pool in
  check Alcotest.int "one miss per page read" 12 s.Buffer_pool.misses;
  check Alcotest.int "every write hit" 6 s.Buffer_pool.hits

(* The victim-buffer race, forced: a reader snapshots page p's stamp, then
   (inside its callback) another task evicts p and reads page q into the
   same bytes.  The reader's attempt must fail validation on the dead
   stamp, and the retry must return p's bytes, never q's. *)
let test_pool_reload_into_victim_buffer_race () =
  let forced = ref 0 in
  for seed = 1 to 40 do
    let pool = Buffer_pool.create ~capacity:2 (Disk.create ~page_size:128 ()) in
    let q = Buffer_pool.alloc_page pool in
    Buffer_pool.with_page_mut pool q (fun img -> Bytes.set_int64_be img 0 222L);
    let p = Buffer_pool.alloc_page pool in
    Buffer_pool.with_page_mut pool p (fun img -> Bytes.set_int64_be img 0 111L);
    (* A third page evicts q; p is then the LRU frame. *)
    ignore (Buffer_pool.alloc_page pool);
    let p_buf = Buffer_pool.read_page pool p Fun.id in
    let saw_q = ref false and result = ref 0L and reused = ref false in
    ignore
      (Sched.run ~seed
         [
           ( "reader",
             fun () ->
               result :=
                 Buffer_pool.read_page pool p (fun img ->
                     Sched.yield ();
                     let v = Bytes.get_int64_be img 0 in
                     if v = 222L then saw_q := true;
                     v) );
           ("loader", fun () -> Buffer_pool.with_page pool q (fun img -> reused := img == p_buf));
         ]);
    check Alcotest.int64 "reader returns p's bytes" 111L !result;
    Alcotest.(check bool) "q was read into p's buffer" true !reused;
    if !saw_q then begin
      incr forced;
      Alcotest.(check bool) "the torn attempt was retried" true
        ((Buffer_pool.stats pool).Buffer_pool.opt_retries > 0)
    end
  done;
  Alcotest.(check bool) "some schedule put q's bytes under the reader" true (!forced > 0)

(* A miss whose read fails after its victim was evicted: the error
   surfaces, the counters stay consistent, nothing half-installed is
   served, the next read of the page fails the same way, and the rest of
   the pool keeps working. *)
let test_pool_read_into_faults () =
  let d = Disk.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let a = Buffer_pool.alloc_page pool in
  let b = Buffer_pool.alloc_page pool in
  let bad = Buffer_pool.alloc_page pool in
  List.iter
    (fun (p, ch) -> Buffer_pool.with_page_mut pool p (fun img -> Bytes.set img 0 ch))
    [ (a, 'a'); (b, 'b'); (bad, 'x') ];
  Buffer_pool.drop_cache pool;
  let consistent what =
    let s = Buffer_pool.stats pool in
    check Alcotest.int (what ^ ": hits + misses = logical reads") s.Buffer_pool.logical_reads
      (s.Buffer_pool.hits + s.Buffer_pool.misses)
  in
  let check_fault what is_fault =
    (* a is dirty and the LRU frame: the failing miss evicts it first. *)
    Buffer_pool.with_page_mut pool a (fun img -> Bytes.set img 1 'A');
    Buffer_pool.with_page pool b (fun _ -> ());
    for attempt = 1 to 2 do
      (match Buffer_pool.read_page pool bad (fun img -> Bytes.get img 0) with
      | ch -> Alcotest.failf "%s: read %d of the bad page returned %C" what attempt ch
      | exception e when is_fault e -> ());
      consistent what
    done;
    check Alcotest.char (what ^ ": victim's write reached disk") 'A' (Bytes.get (Disk.read d a) 1);
    let misses = (Buffer_pool.stats pool).Buffer_pool.misses in
    check Alcotest.char (what ^ ": b still served") 'b'
      (Buffer_pool.read_page pool b (fun img -> Bytes.get img 0));
    check Alcotest.char (what ^ ": a reloads") 'a'
      (Buffer_pool.read_page pool a (fun img -> Bytes.get img 0));
    check Alcotest.int (what ^ ": only a missed") (misses + 1)
      (Buffer_pool.stats pool).Buffer_pool.misses;
    consistent what
  in
  Disk.set_faults d { Disk.no_faults with fail_read_pids = [ bad ] };
  check_fault "injected read failure" (function Disk.Crash _ -> true | _ -> false);
  let dst = Bytes.make 128 '#' in
  (try Disk.read_into d bad dst with Disk.Crash _ -> ());
  Alcotest.(check bool) "failed read_into leaves the buffer untouched" true
    (Bytes.equal dst (Bytes.make 128 '#'));
  (* Tear the bad page on the platter: a prefix of a new image, old sum. *)
  Disk.set_faults d { Disk.no_faults with crash_at_write = Some 1; torn_prefix = 10 };
  (try Disk.write d bad (Bytes.make 128 'z') with Disk.Crash _ -> ());
  Disk.clear_faults d;
  Buffer_pool.drop_cache pool;
  check_fault "torn page" (function Disk.Corrupt_page _ -> true | _ -> false)

let with_heap f =
  let d = Disk.create ~page_size:256 () in
  let pool = Buffer_pool.create ~capacity:16 d in
  f (Heap_file.create pool small_schema)

let test_heap_insert_get () =
  with_heap (fun h ->
      let rid = Heap_file.insert h (mk_tuple 1 100) in
      match Heap_file.get h rid with
      | Some t -> check Alcotest.string "value" "100" (Value.to_string (Tuple.get t 1))
      | None -> Alcotest.fail "tuple not found")

let test_heap_update_in_place_keeps_rid () =
  with_heap (fun h ->
      let rid = Heap_file.insert h (mk_tuple 1 100) in
      Heap_file.update_in_place h rid (mk_tuple 1 200);
      (match Heap_file.get h rid with
      | Some t -> check Alcotest.string "updated" "200" (Value.to_string (Tuple.get t 1))
      | None -> Alcotest.fail "missing");
      check Alcotest.int "count stable" 1 (Heap_file.tuple_count h))

let test_heap_delete () =
  with_heap (fun h ->
      let rid = Heap_file.insert h (mk_tuple 1 100) in
      Heap_file.delete h rid;
      Alcotest.(check bool) "gone" true (Heap_file.get h rid = None);
      check Alcotest.int "count" 0 (Heap_file.tuple_count h))

let test_heap_slot_reuse () =
  with_heap (fun h ->
      let rid0 = Heap_file.insert h (mk_tuple 1 100) in
      Heap_file.delete h rid0;
      let rid1 = Heap_file.insert h (mk_tuple 2 200) in
      Alcotest.(check bool) "slot reused" true (Heap_file.rid_equal rid0 rid1))

let test_heap_scan_order_and_count () =
  with_heap (fun h ->
      for i = 1 to 100 do
        ignore (Heap_file.insert h (mk_tuple i i))
      done;
      let seen = ref [] in
      Heap_file.scan h (fun _ t ->
          match Tuple.get t 0 with Value.Int n -> seen := n :: !seen | _ -> ());
      check Alcotest.int "scanned all" 100 (List.length !seen);
      check (Alcotest.list Alcotest.int) "in insert order" (List.init 100 (fun i -> i + 1))
        (List.rev !seen))

let test_heap_spans_pages () =
  with_heap (fun h ->
      (* 256-byte pages, 8-byte records: ~28 slots/page; 100 tuples need >1 page. *)
      for i = 1 to 100 do
        ignore (Heap_file.insert h (mk_tuple i i))
      done;
      Alcotest.(check bool) "multiple pages" true (Heap_file.page_count h > 1))

let test_heap_update_free_slot_rejected () =
  with_heap (fun h ->
      let rid = Heap_file.insert h (mk_tuple 1 1) in
      Heap_file.delete h rid;
      Alcotest.(check bool) "raises" true
        (try
           Heap_file.update_in_place h rid (mk_tuple 1 2);
           false
         with Invalid_argument _ -> true))

(* Page runs.  [modify_many] encoding each tuple over its record must
   leave exactly the bytes the same updates applied one record at a time
   leave — including the zeroed tail
   of a string cell rewritten shorter — on two clones of one disk. *)
let named_schema =
  Schema.make
    [
      Schema.attr ~key:true "id" Dtype.Int;
      Schema.attr ~updatable:true "name" (Dtype.Str 8);
      Schema.attr ~updatable:true "v" Dtype.Int;
    ]

let named id name v = Tuple.make named_schema [ Value.Int id; Value.Str name; Value.Int v ]

(* [modify_many] writing each update's tuple over its record. *)
let encode_run h updates =
  Heap_file.modify_many h (Array.map fst updates) (fun i img off ->
      Tuple.encode_into (Heap_file.schema h) (snd updates.(i)) img off)

let test_heap_modify_many_matches_one_by_one () =
  let d = Disk.create ~page_size:256 () in
  let pool = Buffer_pool.create ~capacity:4 d in
  let h = Heap_file.create pool named_schema in
  let n = 5 * Heap_file.tuples_per_page h in
  for id = 1 to n do
    ignore (Heap_file.insert h (named id "longname" id))
  done;
  Buffer_pool.flush_all pool;
  (* Two of every three records, rid-sorted: several runs per page. *)
  let updates =
    Heap_file.to_list h
    |> List.filteri (fun i _ -> i mod 3 <> 1)
    |> List.map (fun (rid, t) ->
           match Tuple.get t 0 with
           | Value.Int id -> (rid, named id (if id mod 2 = 0 then "ab" else "") (-id))
           | _ -> assert false)
    |> Array.of_list
  in
  let image apply =
    let d' = Disk.clone d in
    let pool' = Buffer_pool.create ~capacity:2 d' in
    let h' = Heap_file.attach pool' named_schema ~pages:(Heap_file.pages h) in
    apply h';
    Buffer_pool.flush_all pool';
    (h', List.init (Disk.page_count d') (Disk.read d'))
  in
  let h_runs, runs = image (fun h' -> encode_run h' updates) in
  let _, one_by_one =
    image (fun h' -> Array.iter (fun (rid, t) -> Heap_file.update_in_place h' rid t) updates)
  in
  Alcotest.(check bool) "byte-identical disk images" true (List.for_all2 Bytes.equal runs one_by_one);
  Array.iter
    (fun (rid, t) ->
      Alcotest.(check bool) "update landed" true
        (match Heap_file.get h_runs rid with Some t' -> Tuple.equal t t' | None -> false))
    updates

(* Insert runs.  [insert_many] must put every tuple where a lone insert
   would: the lowest free slot of the lowest page with one, across holes
   left by deletes in several pages and past the last page (allocating
   mid-batch).  The slot choice is modelled from the occupancy alone. *)
let test_heap_insert_many_matches_lone_inserts () =
  let d = Disk.create ~page_size:256 () in
  let pool = Buffer_pool.create ~capacity:4 d in
  let h = Heap_file.create pool named_schema in
  let per = Heap_file.tuples_per_page h in
  for id = 1 to 3 * per do
    ignore (Heap_file.insert h (named id "x" id))
  done;
  (* Holes: every third record of the first and the last page. *)
  List.iter
    (fun (rid, _) ->
      if rid.Heap_file.slot mod 3 = 1 && rid.Heap_file.page <> List.nth (Heap_file.pages h) 1 then
        Heap_file.delete h rid)
    (Heap_file.to_list h);
  let used = Hashtbl.create 64 in
  List.iter (fun (rid, _) -> Hashtbl.replace used rid ()) (Heap_file.to_list h);
  let pages = Heap_file.pages h and before = Heap_file.tuple_count h in
  let k = 2 * per in
  let tuples = Array.init k (fun i -> named (1000 + i) "y" i) in
  let rids = Heap_file.insert_many h k (fun i -> Tuple.encode_into named_schema tuples.(i)) in
  (* The model: scan the known pages in id order for the lowest free slot;
     once they are full, fresh pages fill from slot 0 in allocation order. *)
  let sorted_pages = List.sort Int.compare pages in
  let fresh = ref [] in
  Array.iteri
    (fun i (rid : Heap_file.rid) ->
      let expected =
        match
          List.find_map
            (fun page ->
              List.find_map
                (fun slot ->
                  let r = { Heap_file.page; slot } in
                  if Hashtbl.mem used r then None else Some r)
                (List.init per Fun.id))
            sorted_pages
        with
        | Some r -> r
        | None ->
          (* Fresh pages fill one after another. *)
          let n = List.length !fresh in
          let page =
            match !fresh with
            | last :: _ when n mod per <> 0 -> last.Heap_file.page
            | _ ->
              Alcotest.(check bool) "a new page" false
                (List.mem rid.page pages || List.exists (fun (r : Heap_file.rid) -> r.page = rid.page) !fresh);
              rid.page
          in
          fresh := rid :: !fresh;
          { Heap_file.page; slot = n mod per }
      in
      Hashtbl.replace used expected ();
      if not (Heap_file.rid_equal rid expected) then
        Alcotest.failf "tuple %d landed at %d/%d, a lone insert picks %d/%d" i rid.page rid.slot
          expected.page expected.slot;
      Alcotest.(check bool) "insert landed" true
        (match Heap_file.get h rid with Some t -> Tuple.equal t tuples.(i) | None -> false))
    rids;
  Alcotest.(check bool) "the batch outgrew the known pages" true (!fresh <> []);
  check Alcotest.int "tuple count" (before + k) (Heap_file.tuple_count h)

(* A free slot in the middle of a run: [Invalid_argument], the run's
   earlier records written, the rest untouched, and no pin left behind —
   with two frames, a nested access to two other pages needs both. *)
let test_heap_modify_many_free_slot_releases_pins () =
  let d = Disk.create ~page_size:256 () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let h = Heap_file.create pool small_schema in
  let per = Heap_file.tuples_per_page h in
  for id = 1 to 3 * per do
    ignore (Heap_file.insert h (mk_tuple id id))
  done;
  let rids = Array.of_list (List.map fst (Heap_file.to_list h)) in
  Heap_file.delete h rids.(per + 2);
  let updates = Array.init (2 * per) (fun i -> (rids.(i), mk_tuple (i + 1) (-1))) in
  Alcotest.(check bool) "raises" true
    (try
       encode_run h updates;
       false
     with Invalid_argument _ -> true);
  let v rid =
    match Heap_file.get h rid with Some t -> Value.to_string (Tuple.get t 1) | None -> "free"
  in
  check Alcotest.string "first page written" "-1" (v rids.(0));
  check Alcotest.string "run written up to the free slot" "-1" (v rids.(per + 1));
  check Alcotest.string "free slot stays free" "free" (v rids.(per + 2));
  check Alcotest.string "rest of the run untouched" (string_of_int (per + 4)) (v rids.(per + 3));
  match Heap_file.pages h with
  | [ p0; p1; p2 ] ->
    ignore p1;
    Buffer_pool.with_page pool p0 (fun _ -> Buffer_pool.with_page pool p2 (fun _ -> ()));
    ignore (Buffer_pool.alloc_page pool)
  | _ -> Alcotest.fail "expected three pages"

(* The same free slot one level up: a table whose secondary index covers
   the updated column.  Index upkeep rides each record's write, so after
   the failure every live record is found under its stored value and
   every entry names a record that still holds it — whether the write
   re-encodes the whole record or only the indexed cell. *)
let test_table_rewrite_many_free_slot_keeps_index () =
  let module Table = Vnl_query.Table in
  List.iter
    (fun whole ->
      let pool = Buffer_pool.create ~capacity:2 (Disk.create ~page_size:256 ()) in
      let t = Table.create pool ~name:"t" small_schema in
      Table.create_index t ~name:"by_v" [ "v" ];
      let per = Heap_file.tuples_per_page (Table.heap t) in
      let n = 3 * per in
      for id = 1 to n do
        ignore (Table.insert t (mk_tuple id id))
      done;
      let stored = Array.of_list (Table.to_list t) in
      Table.delete t (fst stored.(per + 2));
      let rids = Array.init (2 * per) (fun i -> fst stored.(i)) in
      let write i img off =
        if whole then Tuple.encode_into small_schema (mk_tuple (i + 1) (-(i + 1))) img off
        else
          Value.write_cell Dtype.Int
            (Value.Int (-(i + 1)))
            img
            (off + (Schema.cell_offsets small_schema).(1))
      in
      Alcotest.(check bool) "raises" true
        (try
           Table.rewrite_many t rids write;
           false
         with Invalid_argument _ -> true);
      let label = if whole then "" else " (one cell)" in
      List.iter
        (fun (rid, tuple) ->
          Alcotest.(check bool) ("live record indexed under its value" ^ label) true
            (List.exists (Heap_file.rid_equal rid)
               (Table.index_lookup t ~name:"by_v" [ Tuple.get tuple 1 ])))
        (Table.to_list t);
      for i = 1 to n do
        List.iter
          (fun v ->
            List.iter
              (fun rid ->
                Alcotest.(check bool) ("entry names a record holding it" ^ label) true
                  (match Table.get t rid with
                  | Some tuple -> Value.equal (Tuple.get tuple 1) v
                  | None -> false))
              (Table.index_lookup t ~name:"by_v" [ v ]))
          [ Value.Int i; Value.Int (-i) ]
      done)
    [ false; true ]

(* The stamp rule, forced: an optimistic reader that snapshots the page
   before a run and validates after any part of it must never validate.
   The reader's callback yields between records, and the run yields
   between its records, so the schedules put the reader mid-run; whatever
   the interleaving, the values it returns are all old or all new. *)
let test_heap_page_run_all_or_nothing () =
  let l = Page.layout ~page_size:256 ~record_width:(Schema.width small_schema) in
  let run_len = 6 and forced = ref 0 in
  for seed = 1 to 60 do
    let pool = Buffer_pool.create ~capacity:4 (Disk.create ~page_size:256 ()) in
    let h = Heap_file.create pool small_schema in
    for id = 1 to run_len do
      ignore (Heap_file.insert h (mk_tuple id 0))
    done;
    let page = List.hd (Heap_file.pages h) in
    let run =
      Array.of_list (List.mapi (fun i (rid, _) -> (rid, mk_tuple (i + 1) 1)) (Heap_file.to_list h))
    in
    let seen = ref [] in
    ignore
      (Sched.run ~seed
         [
           ( "reader",
             fun () ->
               seen :=
                 Buffer_pool.read_page pool page (fun img ->
                     List.init run_len (fun slot ->
                         Sched.yield ();
                         Tuple.get (Tuple.decode_from small_schema img (Page.record_offset l slot)) 1)) );
           ("writer", fun () -> encode_run h run);
         ]);
    let all v = List.for_all (Value.equal (Value.Int v)) !seen in
    Alcotest.(check bool) (Printf.sprintf "seed %d: all old or all new" seed) true (all 0 || all 1);
    if (Buffer_pool.stats pool).Buffer_pool.opt_retries > 0 then incr forced
  done;
  Alcotest.(check bool) "some schedule overlapped the reader with the run" true (!forced > 0)

let test_latch_discipline () =
  let l = Latch.create "t" in
  Latch.acquire l;
  Alcotest.(check bool) "held" true (Latch.held l);
  Alcotest.(check bool) "re-entry fails" true
    (try
       Latch.acquire l;
       false
     with Failure _ -> true);
  Latch.release l;
  Alcotest.(check bool) "release twice fails" true
    (try
       Latch.release l;
       false
     with Failure _ -> true);
  check Alcotest.int "acquisitions" 1 (Latch.acquisitions l)

let test_latch_with_latch_releases_on_exn () =
  let l = Latch.create "t" in
  (try Latch.with_latch l (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "released" false (Latch.held l)

(* Property: a random interleaving of inserts/deletes/updates against a model. *)
let qcheck_heap_model =
  let open QCheck in
  let module Tuple = Vnl_relation.Tuple in
  let ops =
    Gen.(
      list_size (0 -- 200)
        (frequency
           [
             (5, map (fun v -> `Insert v) (int_range 0 1000));
             (2, map (fun i -> `Delete i) (int_range 0 50));
             (2, map2 (fun i v -> `Update (i, v)) (int_range 0 50) (int_range 0 1000));
           ]))
  in
  Test.make ~name:"heap file agrees with list model" ~count:100 (make ops) (fun ops ->
      let d = Disk.create ~page_size:256 () in
      let pool = Buffer_pool.create ~capacity:4 d in
      let h = Heap_file.create pool small_schema in
      let model : (Heap_file.rid * int) list ref = ref [] in
      let counter = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Insert v ->
            incr counter;
            let rid = Heap_file.insert h (mk_tuple !counter v) in
            model := (rid, v) :: !model
          | `Delete i -> (
            match List.nth_opt !model i with
            | Some (rid, _) ->
              Heap_file.delete h rid;
              model := List.filter (fun (r, _) -> not (Heap_file.rid_equal r rid)) !model
            | None -> ())
          | `Update (i, v) -> (
            match List.nth_opt !model i with
            | Some (rid, _) ->
              incr counter;
              Heap_file.update_in_place h rid (mk_tuple !counter v);
              model :=
                List.map (fun (r, x) -> if Heap_file.rid_equal r rid then (r, v) else (r, x)) !model
            | None -> ()))
        ops;
      let stored =
        Heap_file.fold h ~init:[] ~f:(fun acc rid t ->
            match Tuple.get t 1 with Value.Int v -> (rid, v) :: acc | _ -> acc)
      in
      let norm l = List.sort compare (List.map (fun ({ Heap_file.page; slot }, v) -> (page, slot, v)) l) in
      norm stored = norm !model)

(* ---------- CRC-32C: vectors, differential oracle, torn-page parity ----- *)

module Crc = Vnl_storage.Crc
module Xorshift = Vnl_util.Xorshift

let crc32c_paths =
  [
    ("crc32c", Crc.crc32c);
    ("hardware", Crc.crc32c_hw);
    ("sliced", Crc.crc32c_sliced);
    ("bytewise", Crc.crc32c_bytewise);
  ]

let test_crc32c_vectors () =
  (* RFC 3720 §B.4 test vectors, through every path. *)
  List.iter
    (fun (path, crc) ->
      check Alcotest.int (path ^ "(\"123456789\")") 0xE3069283
        (crc (Bytes.of_string "123456789"));
      check Alcotest.int (path ^ "(32 x 0x00)") 0x8A9136AA (crc (Bytes.make 32 '\x00'));
      check Alcotest.int (path ^ "(32 x 0xff)") 0x62A8AB43 (crc (Bytes.make 32 '\xff'));
      check Alcotest.int (path ^ "(0x00..0x1f)") 0x46DD794E (crc (Bytes.init 32 Char.chr)))
    crc32c_paths;
  (* The retired checksum must be unchanged too — it anchors the
     differential torn-page test below. *)
  check Alcotest.int "crc32_ieee(\"123456789\")" 0xCBF43926
    (Crc.crc32_ieee (Bytes.of_string "123456789"))

(* The sliced kernel folds 8 bytes per iteration with a bytewise tail, so
   every length mod 8 (and the sub-8 lengths that skip the sliced loop
   entirely) must agree with the byte-at-a-time oracle. *)
let qcheck_crc32c_differential =
  let open QCheck in
  let gen =
    Gen.(
      let* n = oneof [ int_range 0 67; return 256; return 4096 ] in
      map Bytes.unsafe_of_string (string_size (return n)))
  in
  Test.make ~name:"sliced CRC-32C agrees with the bytewise oracle" ~count:300 (make gen)
    (fun img -> Crc.crc32c_sliced img = Crc.crc32c_bytewise img)

(* The hardware kernel folds 8 bytes per [crc32q] with a bytewise tail;
   it must agree with both OCaml kernels at every length up to two pages,
   including every tail length.  On hosts without SSE4.2 this exercises
   the stub's portable loop. *)
let qcheck_crc32c_hardware_differential =
  let open QCheck in
  let gen =
    Gen.(
      let* n = oneof [ int_range 0 9000; int_range 0 17; map (fun k -> (8 * k) + 1) (int_range 0 1124) ] in
      map Bytes.unsafe_of_string (string_size (return n)))
  in
  Test.make ~name:"hardware, sliced and bytewise CRC-32C agree" ~count:300
    (make ~print:(fun b -> Printf.sprintf "<%d bytes>" (Bytes.length b)) gen)
    (fun img ->
      let hw = Crc.crc32c_hw img in
      hw = Crc.crc32c_sliced img && hw = Crc.crc32c_bytewise img && hw = Crc.crc32c img)

(* Old-vs-new on the same torn-page corpus: for every random page image and
   torn prefix, both generations of checksum must flag exactly the same
   images (i.e. detect the tear whenever the torn image differs at all).
   This is the evidence that swapping the polynomial and kernel did not
   weaken torn-write detection. *)
let test_crc_torn_page_parity () =
  let rng = Xorshift.create 99 in
  let page_size = 256 in
  for _case = 1 to 200 do
    let img = Bytes.init page_size (fun _ -> Char.chr (Xorshift.int rng 256)) in
    let full_old = Crc.crc32_ieee img and full_new = Crc.crc32c img in
    (* A torn write applies a prefix of the new image over the old one. *)
    let prev = Bytes.init page_size (fun _ -> Char.chr (Xorshift.int rng 256)) in
    let k = Xorshift.int rng (page_size + 1) in
    let torn = Bytes.copy prev in
    Bytes.blit img 0 torn 0 k;
    let differs = not (Bytes.equal torn img) in
    let old_detects = Crc.crc32_ieee torn <> full_old in
    let new_detects = Crc.crc32c torn <> full_new in
    if old_detects <> differs then
      Alcotest.failf "case with prefix %d: CRC-32 detection %b but image differs %b" k
        old_detects differs;
    if new_detects <> differs then
      Alcotest.failf "case with prefix %d: CRC-32C detection %b but image differs %b" k
        new_detects differs
  done

let test_disk_verify_uses_crc32c () =
  (* The disk's stored checksum is the new kernel: a torn write (prefix of
     the new image over the old) makes [verify] fail. *)
  let d = Disk.create ~page_size:64 () in
  let p = Disk.alloc d in
  Disk.write d p (Bytes.make 64 's');
  Alcotest.(check bool) "clean page verifies" true (Disk.verify d p);
  Disk.set_faults d { Disk.no_faults with crash_at_write = Some 1; torn_prefix = 10 };
  (try Disk.write d p (Bytes.make 64 't') with Disk.Crash _ -> ());
  Disk.clear_faults d;
  Alcotest.(check bool) "torn page fails verify" false (Disk.verify d p)

let suite =
  [
    Alcotest.test_case "disk alloc/read/write" `Quick test_disk_alloc_read_write;
    Alcotest.test_case "disk bad page" `Quick test_disk_bad_page;
    Alcotest.test_case "disk many pages" `Quick test_disk_many_pages;
    Alcotest.test_case "disk checksum roundtrip" `Quick test_disk_checksum_roundtrip;
    Alcotest.test_case "disk crash at write k" `Quick test_disk_crash_at_write_k;
    Alcotest.test_case "disk torn write detected" `Quick test_disk_torn_write_detected;
    Alcotest.test_case "disk full-prefix write completes" `Quick
      test_disk_full_prefix_write_is_complete;
    Alcotest.test_case "disk injected read failure" `Quick test_disk_injected_read_failure;
    Alcotest.test_case "disk clone independent" `Quick test_disk_clone_independent;
    Alcotest.test_case "disk write copies in place" `Quick test_disk_write_in_place;
    Alcotest.test_case "disk checksums off" `Quick test_disk_checksums_off;
    Alcotest.test_case "disk first write after reset_stats" `Quick
      test_disk_first_write_after_reset;
    Alcotest.test_case "pool first write-back after reset_stats" `Quick
      test_pool_first_writeback_after_reset;
    Alcotest.test_case "pool pin survives nested access" `Quick
      test_pool_pin_survives_nested_access;
    Alcotest.test_case "pool all-pinned eviction raises" `Quick test_pool_all_pinned_raises;
    Alcotest.test_case "pool unpins after callback" `Quick test_pool_unpinned_after_callback;
    Alcotest.test_case "page layout arithmetic" `Quick test_page_layout;
    Alcotest.test_case "page slot lifecycle" `Quick test_page_slots;
    Alcotest.test_case "page in-place overwrite" `Quick test_page_overwrite_in_place;
    Alcotest.test_case "page record too large" `Quick test_page_record_too_large;
    Alcotest.test_case "pool hit/miss accounting" `Quick test_pool_hit_miss;
    Alcotest.test_case "pool dirty writeback" `Quick test_pool_dirty_writeback;
    Alcotest.test_case "pool eviction persists dirty" `Quick test_pool_eviction_persists_dirty;
    Alcotest.test_case "pool drop_cache goes cold" `Quick test_pool_drop_cache_cold;
    Alcotest.test_case "pool reset_stats zeroes counters" `Quick test_pool_reset_stats_zeroes;
    Alcotest.test_case "pool drop_cache flushes dirty" `Quick test_pool_drop_cache_flushes_dirty;
    Alcotest.test_case "pool LRU victim order" `Quick test_pool_lru_victim_order;
    Alcotest.test_case "flush_all writes ascending pids" `Quick test_flush_all_ascending_pid;
    Alcotest.test_case "drop_cache flush ordering" `Quick test_drop_cache_ascending_pid;
    Alcotest.test_case "pool scan ring keeps pages across large scans" `Quick
      test_pool_scan_ring_resists_large_scans;
    Alcotest.test_case "pool small scan keeps plain LRU" `Quick test_pool_small_scan_keeps_lru;
    Alcotest.test_case "pool read-then-write misses once" `Quick
      test_pool_read_then_write_misses_once;
    Alcotest.test_case "pool reload into victim buffer vs reader" `Quick
      test_pool_reload_into_victim_buffer_race;
    Alcotest.test_case "pool read_into faults keep pool consistent" `Quick
      test_pool_read_into_faults;
    Alcotest.test_case "heap insert/get" `Quick test_heap_insert_get;
    Alcotest.test_case "heap update in place keeps rid" `Quick test_heap_update_in_place_keeps_rid;
    Alcotest.test_case "heap delete" `Quick test_heap_delete;
    Alcotest.test_case "heap slot reuse" `Quick test_heap_slot_reuse;
    Alcotest.test_case "heap scan order" `Quick test_heap_scan_order_and_count;
    Alcotest.test_case "heap spans pages" `Quick test_heap_spans_pages;
    Alcotest.test_case "heap update free slot rejected" `Quick test_heap_update_free_slot_rejected;
    Alcotest.test_case "heap modify_many = one-by-one updates, byte for byte" `Quick
      test_heap_modify_many_matches_one_by_one;
    Alcotest.test_case "heap insert_many = lone inserts, slot for slot" `Quick
      test_heap_insert_many_matches_lone_inserts;
    Alcotest.test_case "heap modify_many free slot mid-run releases pins" `Quick
      test_heap_modify_many_free_slot_releases_pins;
    Alcotest.test_case "heap page run: optimistic reader sees all or nothing" `Quick
      test_heap_page_run_all_or_nothing;
    Alcotest.test_case "latch discipline" `Quick test_latch_discipline;
    Alcotest.test_case "latch releases on exception" `Quick test_latch_with_latch_releases_on_exn;
    Alcotest.test_case "crc32c known vectors" `Quick test_crc32c_vectors;
    Alcotest.test_case "crc old/new torn-page detection parity" `Quick
      test_crc_torn_page_parity;
    Alcotest.test_case "disk verify detects torn writes with crc32c" `Quick
      test_disk_verify_uses_crc32c;
    QCheck_alcotest.to_alcotest qcheck_crc32c_differential;
    QCheck_alcotest.to_alcotest qcheck_crc32c_hardware_differential;
    QCheck_alcotest.to_alcotest qcheck_heap_model;
    Alcotest.test_case "table rewrite_many free slot mid-run keeps indexes" `Quick
      test_table_rewrite_many_free_slot_keeps_index;
  ]
