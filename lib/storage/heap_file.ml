module Tuple = Vnl_relation.Tuple
module Schema = Vnl_relation.Schema
module Iset = Set.Make (Int)

type rid = { page : int; slot : int }

(* [pages] is an [Atomic] holding an immutable list: reader domains scan
   it while the maintenance domain appends freshly allocated pages.  The
   atomic store publishes the new head after the page is initialized; a
   reader that misses the newest page misses only tuples stamped with the
   still-uncommitted maintenanceVN — invisible to its session anyway.
   [free] and [count] stay plain: they are touched only by the single
   maintenance domain (all mutation goes through the heap latch). *)
type t = {
  pool : Buffer_pool.t;
  schema : Schema.t;
  layout : Page.layout;
  pages : int list Atomic.t;  (** All pages, newest first. *)
  mutable free : Iset.t;  (** Pages with at least one free slot. *)
  mutable count : int;
  latch : Latch.t;
}

let create pool schema =
  let layout =
    Page.layout ~page_size:(Disk.page_size (Buffer_pool.disk pool))
      ~record_width:(Schema.width schema)
  in
  { pool; schema; layout; pages = Atomic.make []; free = Iset.empty; count = 0;
    latch = Latch.create "heap" }

let schema t = t.schema

let tuples_per_page t = t.layout.Page.slots

let alloc_page t =
  let pid = Buffer_pool.alloc_page t.pool in
  Buffer_pool.with_page_mut t.pool pid (fun img -> Page.init t.layout img);
  Atomic.set t.pages (pid :: Atomic.get t.pages);
  t.free <- Iset.add pid t.free;
  pid

(* An insert run fills one page's free slots, lowest first, under one heap
   latch, one pin and one exclusive frame latch, then moves on to the
   lowest page that still has one (allocating when none does).  Each
   record lands where a lone insert would put it: the lowest free slot of
   the lowest page with one.  The slot's flag goes up after [write], so a
   raising [write] leaves its slot free; a failure mid-run leaves the
   records before it inserted, as the same lone inserts would. *)
let insert_many ?(before = ignore) ?(after = fun _ _ _ _ -> ()) t n write =
  let rids = Array.make n { page = 0; slot = 0 } in
  let rec fill pid img i from =
    if i >= n then i
    else
      match Page.first_free_slot ~from t.layout img with
      | None -> i
      | Some slot ->
        before i;
        Page.write_slot_with t.layout img slot (write i);
        t.count <- t.count + 1;
        let rid = { page = pid; slot } in
        rids.(i) <- rid;
        after i rid img (Page.record_offset t.layout slot);
        Vnl_util.Sched.yield ();
        fill pid img (i + 1) (slot + 1)
  in
  let rec run i =
    if i < n then begin
      let pid = match Iset.min_elt_opt t.free with Some pid -> pid | None -> alloc_page t in
      run
        (Latch.with_latch t.latch (fun () ->
             Buffer_pool.with_page_mut t.pool pid (fun img ->
                 let next = fill pid img i 0 in
                 if Page.first_free_slot t.layout img = None then t.free <- Iset.remove pid t.free;
                 next)))
    end
  in
  run 0;
  rids

(* [Tuple.encode_into] validates the whole tuple before its first byte
   lands, so a rejected tuple leaves the page as it was. *)
let insert t tuple = (insert_many t 1 (fun _ -> Tuple.encode_into t.schema tuple)).(0)

(* Optimistic: [f] is pure and bounds-checked, so a torn attempt is
   safely discarded and re-run by [read_page]. *)
let read_record t rid f =
  Buffer_pool.read_page t.pool rid.page (fun img ->
      if Page.slot_used t.layout img rid.slot then
        Some (f img (Page.record_offset t.layout rid.slot))
      else None)

let get t rid = read_record t rid (Tuple.decode_from t.schema)

(* A page run — consecutive records of one page — costs one heap latch,
   one pin (two pool-mutex round trips) and one exclusive frame latch,
   however many records it writes.  The frame's stamp
   is odd from the run's first write to its last: an optimistic reader
   that overlaps any part of the run fails validation, so it sees the
   whole run or none of it, never a page with some of the run's records
   rewritten (DESIGN.md §12).  [f i img off] writes record [i] once its
   slot has checked out, still inside the run: that is also where a table
   moves the record's index entries, so each record's entries and bytes
   change together.  A failure mid-run (a free slot, a raising [f]) leaves
   the records before it written, exactly as the same sequence of
   one-record writes would. *)
let modify_many t rids f =
  let n = Array.length rids in
  (* Write the run of [page] that starts at [i]; the index past it. *)
  let rec write img page i =
    if i >= n then i
    else
      let rid = rids.(i) in
      if rid.page <> page then i
      else begin
        if not (Page.slot_used t.layout img rid.slot) then
          invalid_arg "Heap_file: free slot in a page run";
        f i img (Page.record_offset t.layout rid.slot);
        (* A scheduling point between the run's records, so the
           deterministic interleaving tests can put a reader mid-run. *)
        Vnl_util.Sched.yield ();
        write img page (i + 1)
      end
  in
  let rec run i =
    if i < n then begin
      let page = rids.(i).page in
      run
        (Latch.with_latch t.latch (fun () ->
             Buffer_pool.with_page_mut t.pool page (fun img -> write img page i)))
    end
  in
  run 0

let update_in_place t rid tuple =
  modify_many t [| rid |] (fun _ img off -> Tuple.encode_into t.schema tuple img off)

let delete t rid =
  Latch.with_latch t.latch (fun () ->
      Buffer_pool.with_page_mut t.pool rid.page (fun img ->
          if not (Page.slot_used t.layout img rid.slot) then
            invalid_arg "Heap_file.delete: slot already free";
          Page.clear_slot t.layout img rid.slot));
  t.free <- Iset.add rid.page t.free;
  t.count <- t.count - 1

let scan t f =
  List.iter
    (fun pid ->
      (* Decode the page's live tuples up front (straight from the frame
         image, no record copies) so [f] may modify the page.  The decode
         pass is pure per page, which also makes it safe on the
         latch-free [read_page] path: an attempt that raced a mutator is
         discarded wholesale, and [f] only ever sees a validated batch. *)
      let live =
        Buffer_pool.read_page t.pool pid (fun img ->
            let acc = ref [] in
            Page.iter_used_offsets t.layout img (fun slot off ->
                acc := (slot, Tuple.decode_from t.schema img off) :: !acc);
            List.rev !acc)
      in
      List.iter (fun (slot, tuple) -> f { page = pid; slot } tuple) live)
    (List.rev (Atomic.get t.pages))

let iter_tuples t f =
  List.iter
    (fun pid ->
      (* Same decode-locally-then-iterate shape as [scan]: the page
         callback is pure, so [f]'s side effects run only on validated
         tuples. *)
      let live =
        Buffer_pool.read_page t.pool pid (fun img ->
            let acc = ref [] in
            Page.iter_used_offsets t.layout img (fun _slot off ->
                acc := Tuple.decode_from t.schema img off :: !acc);
            List.rev !acc)
      in
      List.iter f live)
    (List.rev (Atomic.get t.pages))

let iter_records t f =
  (* [f] sees the raw frame image, so its effects cannot be unwound after
     a failed validation: this stays on the latched path.  Readers that
     can accumulate purely should use [fold_pages]. *)
  List.iter
    (fun pid ->
      Buffer_pool.with_page t.pool pid (fun img ->
          Page.iter_used_offsets t.layout img (fun _slot off -> f img off)))
    (List.rev (Atomic.get t.pages))

let fold_pages t ~init ~f =
  (* Newest page first, each page's slots in descending order: a fold
     that conses builds scan order with no final reversal. *)
  let pages = Atomic.get t.pages in
  (* Scanning more pages than the pool has frames is LRU's worst case:
     every page would miss and flush the pool on the way.  Such a scan
     sends its misses to the cold end instead, so they recycle one frame
     and the pages already resident stay for the next scan. *)
  let read =
    if List.compare_length_with pages (Buffer_pool.capacity t.pool) > 0 then
      Buffer_pool.scan_page
    else Buffer_pool.read_page
  in
  List.fold_left
    (fun acc pid ->
      read t.pool pid (fun img -> f acc ~page:pid img (Page.rev_iter_used_offsets t.layout img)))
    init pages

let fold_raw t ~init ~f =
  List.fold_left
    (fun acc pid ->
      Buffer_pool.read_page t.pool pid (fun img ->
          let a = ref acc in
          Page.iter_used_offsets t.layout img (fun slot off ->
              a := f !a ~page:pid ~slot img off);
          !a))
    init
    (List.rev (Atomic.get t.pages))

let fold t ~init ~f =
  let acc = ref init in
  scan t (fun rid tuple -> acc := f !acc rid tuple);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc rid tuple -> (rid, tuple) :: acc))

let tuple_count t = t.count

let page_count t = List.length (Atomic.get t.pages)

let latch_acquisitions t = Latch.acquisitions t.latch

let rid_equal a b = a.page = b.page && a.slot = b.slot

let buffer_pool t = t.pool

let pages t = List.rev (Atomic.get t.pages)

let pages_rev t = Atomic.get t.pages

let attach pool schema ~pages =
  let t = create pool schema in
  Atomic.set t.pages (List.rev pages);
  List.iter
    (fun pid ->
      let used =
        Buffer_pool.with_page pool pid (fun img -> Page.used_count t.layout img)
      in
      t.count <- t.count + used;
      if used < t.layout.Page.slots then t.free <- Iset.add pid t.free)
    pages;
  t
