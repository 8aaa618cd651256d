module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Obs = Vnl_obs.Obs

(* Per-tuple visibility decisions made on the reader hot path (the engine
   extraction that answers §4.1 full scans), and the share that fell off
   the raw-record fast decode into the allocating slow path. *)
let m_decodes = Obs.Registry.counter "reader.visibility_decodes"

let m_slow_decodes = Obs.Registry.counter "reader.slow_decodes"

(* Visible records whose cached decode no longer matched their bytes (or
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

(* The decoded-record cache: per heap page, one slot per record slot,
   each holding the base tuple last decoded there.  The slot is only a
   hint to [Schema_ext.decode_visible], which returns it when the
   record's base cells still decode to its values and a fresh tuple
   otherwise, so a row is always exactly the decode of the bytes being
   read.  Nothing ever invalidates a slot: a record a refresh, GC, abort
   or recovery rewrote simply misses once and takes its new decode.  A
   fill is one pointer write of an immutable tuple, so racing reader
   domains and fills from torn optimistic attempts can leave a slot
   stale, never wrong.  Pages enter the map by CAS, once each. *)
module Pages = Map.Make (Int)

type cache = { pages : Tuple.t array Pages.t Atomic.t }

let create_cache () = { pages = Atomic.make Pages.empty }

(* Arity 0: matches no record, since every base schema has a column. *)
let empty_slot = Tuple.unsafe_of_array [||]

let rec page_slots cache ~page ~slots =
  let pages = Atomic.get cache.pages in
  match Pages.find_opt page pages with
  | Some a -> a
  | None ->
    let a = Array.make slots empty_slot in
    if Atomic.compare_and_set cache.pages pages (Pages.add page a pages) then a
    else page_slots cache ~page ~slots

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
  let slots = Vnl_storage.Heap_file.tuples_per_page (Vnl_query.Table.heap table) in
  let strings = Value.Intern.create () in
  (* The scan runs on the latch-free [fold_pages] path; per visible
     record it allocates only the list cell (and one more cell in the
     final reversal), plus the base tuple when the record changed.  The
     tallies hit the gated observability counters once, after the fold,
     keeping the hottest loop of the read path free of global-ref
     loads. *)
  let page (done_ : scan) ~page img iter =
    let s =
      { rows = done_.rows; decodes = done_.decodes; slow = done_.slow; misses = done_.misses }
    in
    let cached = page_slots cache ~page ~slots in
    iter (fun slot off ->
        s.decodes <- s.decodes + 1;
        match Schema_ext.visibility ext ~session_vn img off with
        | Schema_ext.Visible ->
          let hint = cached.(slot) in
          let base = Schema_ext.decode_visible ext strings ~cached:hint img off in
          if base != hint then begin
            s.misses <- s.misses + 1;
            cached.(slot) <- base
          end;
          s.rows <- base :: s.rows
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
  List.rev s.rows

let expired_by_state ~session_vn ~current_vn ~maintenance_active =
  not
    (session_vn = current_vn
    || (session_vn = current_vn - 1 && not maintenance_active))
