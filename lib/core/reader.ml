module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Obs = Vnl_obs.Obs

(* Per-tuple visibility decisions made on the reader hot path (the engine
   extraction that answers §4.1 full scans), and the share that fell off
   the raw-record fast decode into the allocating slow path. *)
let m_decodes = Obs.Registry.counter "reader.visibility_decodes"

let m_slow_decodes = Obs.Registry.counter "reader.slow_decodes"

(* Visible records whose bytes no longer matched their slot's snapshot (or
   that had none), and were decoded afresh. *)
let m_misses = Obs.Registry.counter "reader.decode_cache_misses"

exception Session_expired of { session_vn : int; tuple_vn : int }

type case =
  | Read_current
  | Read_pre_update of int
  | Ignore_tuple
  | Expired of int

let classify ext ~session_vn tuple =
  (* Slot 1 decides the common case; read it directly to skip the option
     round-trip of [Schema_ext.tuple_vn] on every scanned tuple. *)
  match Tuple.get tuple (Schema_ext.tuple_vn_index ext ~slot:1) with
  | Value.Null -> invalid_arg "Reader.classify: tuple has no version slot 1"
  | Value.Int tvn1 when session_vn >= tvn1 -> Read_current
  | Value.Int _ ->
    begin
      (* Find the least-recent occupied slot and the governing slot: the
         occupied slot with the smallest tupleVN still greater than the
         session. *)
      let rec scan slot governing oldest_vn =
        if slot > Schema_ext.slots ext then (governing, oldest_vn)
        else
          match Schema_ext.tuple_vn ext ~slot tuple with
          | None -> (governing, oldest_vn)
          | Some vn ->
            let governing = if vn > session_vn then Some slot else governing in
            scan (slot + 1) governing (Some (slot, vn))
      in
      let governing, oldest = scan 1 None None in
      match (governing, oldest) with
      | Some slot, Some (oldest_slot, oldest_vn) ->
        if
          oldest_slot = Schema_ext.slots ext
          && session_vn < oldest_vn - 1
        then Expired oldest_vn
        else if slot = oldest_slot && session_vn < oldest_vn - 1 then
          (* History is complete (unused slots remain): before its first
             recorded operation the tuple simply did not exist. *)
          Ignore_tuple
        else Read_pre_update slot
      | _ -> assert false (* slot 1 is occupied and tvn1 > session. *)
    end
  | v ->
    invalid_arg (Printf.sprintf "Schema_ext.tuple_vn: corrupt value %s" (Value.to_string v))

let extract ext ~session_vn tuple =
  match classify ext ~session_vn tuple with
  | Expired tuple_vn -> raise (Session_expired { session_vn; tuple_vn })
  | Ignore_tuple -> None
  | Read_current -> (
    match Schema_ext.operation ext ~slot:1 tuple with
    | Op.Delete -> None
    | Op.Insert | Op.Update -> Some (Schema_ext.current_tuple ext tuple))
  | Read_pre_update slot -> (
    match Schema_ext.operation ext ~slot tuple with
    | Op.Insert -> None
    | Op.Update | Op.Delete -> Some (Schema_ext.pre_update_tuple ext ~slot tuple))

(* The decoded-record cache.  Per heap page, one entry: the row last
   decoded in each record slot, and beside the rows one byte snapshot
   holding, for every filled slot, the exact base-cell bytes that row was
   decoded from (the base cells are contiguous in a record, [width] bytes
   from [first]).  The invariant: a filled slot's row is the decode of its
   snapshot bytes.  A visible record whose live base bytes equal its
   slot's snapshot is therefore served as that row, with no decode and no
   look at the row's cells; nothing ever invalidates a slot, since a
   record a refresh, GC, abort or recovery rewrote simply misses.

   A miss refills the slot: the cells whose bytes differ are copied into
   the snapshot and decoded from there (never from the frame, which a
   torn optimistic read may be changing), the others are shared with the
   old row.  Refills are guarded by the page's seqlock [seq]: a filler
   moves it from even to odd by CAS and back to even when done, also when
   the fill raises (it then empties the slot first, as its snapshot may
   be half-copied).  A hit reads [seq] (even), the row and the snapshot,
   and re-reads [seq]; if it moved, or a fill is in progress, the record
   is decoded without touching the entry.  Pages enter the map by CAS,
   once each. *)
module Pages = Map.Make (Int)

type page = {
  seq : int Atomic.t;  (** Even: stable.  Odd: a fill is in progress. *)
  tuples : Tuple.t array;
  snap : bytes;  (** [width] bytes per slot. *)
}

type cache = { pages : page Pages.t Atomic.t }

let create_cache () = { pages = Atomic.make Pages.empty }

(* Arity 0: the row of a slot never filled, which must not hit even when
   the record's bytes equal the snapshot's initial zeros. *)
let empty_slot = Tuple.unsafe_of_array [||]

let rec page_entry cache ~page ~slots ~width =
  let pages = Atomic.get cache.pages in
  match Pages.find_opt page pages with
  | Some p -> p
  | None ->
    let p =
      {
        seq = Atomic.make 0;
        tuples = Array.make slots empty_slot;
        snap = Bytes.make (slots * width) '\000';
      }
    in
    if Atomic.compare_and_set cache.pages pages (Pages.add page p pages) then p
    else page_entry cache ~page ~slots ~width

let filling cache =
  Pages.fold
    (fun _ p n -> if Atomic.get p.seq land 1 = 1 then n + 1 else n)
    (Atomic.get cache.pages) 0

external get64 : bytes -> int -> int64 = "%caml_bytes_get64"

external get32 : bytes -> int -> int32 = "%caml_bytes_get32"

(* [n] bytes of [a] from [i] equal those of [b] from [j], in 8-byte words. *)
let rec same_bytes a i b j n =
  if n >= 8 then Int64.equal (get64 a i) (get64 b j) && same_bytes a (i + 8) b (j + 8) (n - 8)
  else if n >= 4 then
    Int32.equal (get32 a i) (get32 b j) && same_bytes a (i + 4) b (j + 4) (n - 4)
  else n = 0 || (Bytes.get a i = Bytes.get b j && same_bytes a (i + 1) b (j + 1) (n - 1))

(* One page attempt's tallies, seeded from the validated pages before it.
   Rows are consed onto the validated list, which an invalidated attempt
   never mutates, so discarding the attempt discards its rows and counts
   together. *)
type scan = {
  mutable rows : Tuple.t list;
  mutable decodes : int;
  mutable slow : int;
  mutable misses : int;
}

let visible_relation ?(cache = create_cache ()) ext ~session_vn table =
  let extended = Schema_ext.extended ext in
  let base = Schema_ext.base ext in
  let layout = Vnl_relation.Schema.dtypes base in
  let cells = Vnl_relation.Schema.cell_offsets base in
  let widths = Array.map Vnl_relation.Dtype.width layout in
  let first = (Vnl_relation.Schema.cell_offsets extended).(Schema_ext.base_index ext 0) in
  let width = Vnl_relation.Schema.width base in
  let slots = Vnl_storage.Heap_file.tuples_per_page (Vnl_query.Table.heap table) in
  let strings = Value.Intern.create () in
  (* Refill [slot] from the record at [off]: copy each changed cell into
     the snapshot and decode it from there, share the others. *)
  let refill p ~slot img off =
    let old = Array.unsafe_get p.tuples slot in
    let filled = old != empty_slot and at = slot * width in
    let values = Array.make (Array.length layout) Value.Null in
    for j = 0 to Array.length layout - 1 do
      let c = Array.unsafe_get cells j and w = Array.unsafe_get widths j in
      if filled && same_bytes img (off + first + c) p.snap (at + c) w then
        Array.unsafe_set values j (Tuple.get old j)
      else begin
        Bytes.blit img (off + first + c) p.snap (at + c) w;
        (* Lets the deterministic scheduler park, tear or kill a fill. *)
        Vnl_util.Sched.yield ();
        Array.unsafe_set values j
          (Value.Intern.decode strings (Array.unsafe_get layout j) p.snap (at + c))
      end
    done;
    Tuple.unsafe_of_array values
  in
  let miss p ~slot img off =
    let s0 = Atomic.get p.seq in
    if s0 land 1 = 0 && Atomic.compare_and_set p.seq s0 (s0 + 1) then begin
      match refill p ~slot img off with
      | row ->
        Array.unsafe_set p.tuples slot row;
        Atomic.set p.seq (s0 + 2);
        row
      | exception e ->
        Array.unsafe_set p.tuples slot empty_slot;
        Atomic.set p.seq (s0 + 2);
        raise e
    end
    else (* Another domain is filling this page. *)
      Schema_ext.decode_visible ext strings img off
  in
  (* The scan runs on the latch-free [fold_pages] path, newest record
     first, so consing builds scan order; per visible record a hit
     allocates only the list cell.  The tallies hit the gated
     observability counters once, after the fold, keeping the hottest
     loop of the read path free of global-ref loads. *)
  let page (done_ : scan) ~page img iter =
    let s =
      { rows = done_.rows; decodes = done_.decodes; slow = done_.slow; misses = done_.misses }
    in
    let p = page_entry cache ~page ~slots ~width in
    iter (fun slot off ->
        s.decodes <- s.decodes + 1;
        match Schema_ext.visibility ext ~session_vn img off with
        | Schema_ext.Visible ->
          let s0 = Atomic.get p.seq in
          let row = Array.unsafe_get p.tuples slot in
          let row =
            if
              row != empty_slot && s0 land 1 = 0
              && same_bytes img (off + first) p.snap (slot * width) width
              && Atomic.get p.seq = s0
            then row
            else begin
              s.misses <- s.misses + 1;
              miss p ~slot img off
            end
          in
          s.rows <- row :: s.rows
        | Schema_ext.Invisible -> ()
        | Schema_ext.Slow -> (
          s.slow <- s.slow + 1;
          match extract ext ~session_vn (Tuple.decode_from extended img off) with
          | Some base -> s.rows <- base :: s.rows
          | None -> ()));
    s
  in
  let s =
    Vnl_query.Table.fold_pages table
      ~init:{ rows = []; decodes = 0; slow = 0; misses = 0 }
      ~f:page
  in
  Obs.Counter.record m_decodes s.decodes;
  Obs.Counter.record m_slow_decodes s.slow;
  Obs.Counter.record m_misses s.misses;
  s.rows

let expired_by_state ~session_vn ~current_vn ~maintenance_active =
  not
    (session_vn = current_vn
    || (session_vn = current_vn - 1 && not maintenance_active))
