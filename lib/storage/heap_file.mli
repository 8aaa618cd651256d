(** Heap files: unordered tuple storage with in-place update.

    A heap file stores fixed-width encoded tuples of one schema across
    slotted pages obtained from a buffer pool.  Physical updates overwrite
    the record in its slot ({!modify_many}, {!update_in_place}), satisfying
    the paper's §4 requirement that "the new state of the tuple replaces
    the old tuple on the page". *)

type t

type rid = { page : int; slot : int }
(** Record identifier: page id and slot number. *)

val create : Buffer_pool.t -> Vnl_relation.Schema.t -> t

val schema : t -> Vnl_relation.Schema.t

val tuples_per_page : t -> int

val insert : t -> Vnl_relation.Tuple.t -> rid
(** Store a tuple in the first free slot, allocating a page if needed.  The
    record is encoded straight into the slot; a rejected tuple raises
    [Invalid_argument] and leaves the page as it was. *)

val insert_many :
  ?before:(int -> unit) ->
  ?after:(int -> rid -> bytes -> int -> unit) ->
  t ->
  int ->
  (int -> bytes -> int -> unit) ->
  rid array
(** [insert_many t n write] inserts [n] records in order, as {e insert
    runs}: one run fills the free slots of one page, lowest first, under
    one heap latch, one pin and one exclusive frame latch, so every record
    lands in the slot its lone {!insert} would have picked.  [write i img
    off] writes record [i]'s [Schema.width] bytes at [off] in the page
    image ({!insert} encodes a tuple there); a raising [write] leaves its
    slot free.  [before i] runs just before record [i]'s bytes land and
    [after i rid img off] just after, both inside the run: none of the three may
    touch this file or its buffer pool (a table checks and enters its
    index entries there).  A failure leaves the records before it
    inserted and every pin released.  The rids come back in input
    order. *)

val read_record : t -> rid -> (bytes -> int -> 'a) -> 'a option
(** [read_record t rid f] is [f img off] over the record's bytes in its
    page image, read latch-free ({!Buffer_pool.read_page}); [None] if the
    slot is free.  [f] must be pure: it may run on a torn image, whose
    result is discarded. *)

val get : t -> rid -> Vnl_relation.Tuple.t option
(** [None] if the slot is free (e.g. after {!delete}). *)

val modify_many : t -> rid array -> (int -> bytes -> int -> unit) -> unit
(** [modify_many t rids f] runs [f i img off] on each live record
    [rids.(i)] in place: [img] is the page image under the exclusive latch
    and [off] the record's byte offset.  Consecutive rids on one page form
    a {e page run}, handled under one heap latch, one pin and one exclusive
    frame latch; pass the rids sorted (any order is correct, but only
    sorted input gives one run per page).  The frame's version stamp stays
    odd for the whole run, so an optimistic {!Buffer_pool.read_page} sees
    all of a run or none of it.  [f] must write only the record's
    [Schema.width] bytes at [off] and must not touch this file or its
    buffer pool.  Raises [Invalid_argument] on a free slot, and passes on
    whatever [f] raises; the records before it stay written (as with
    one-by-one writes) and every pin is released. *)

val update_in_place : t -> rid -> Vnl_relation.Tuple.t -> unit
(** Encode the tuple over the record ({!Vnl_relation.Tuple.encode_into})
    in a one-record {!modify_many} run.  Raises [Invalid_argument] if the
    slot is free, or on a rejected tuple, with the record's bytes
    untouched. *)

val delete : t -> rid -> unit
(** Physically remove the tuple.  Raises [Invalid_argument] if the slot is
    already free. *)

val scan : t -> (rid -> Vnl_relation.Tuple.t -> unit) -> unit
(** Visit every live tuple in page/slot order.  Each page is decoded into
    a snapshot first (latch-free via {!Buffer_pool.read_page}), so [f] may
    modify this file. *)

val iter_tuples : t -> (Vnl_relation.Tuple.t -> unit) -> unit
(** Like {!scan} but without rids.  Pages are read latch-free and decoded
    into a per-page batch before [f] runs, so [f] only ever observes
    validated tuples. *)

val iter_records : t -> (bytes -> int -> unit) -> unit
(** Visit every live record as [(page image, byte offset)] without
    decoding, in page/slot order.  [f] runs under the page's shared latch
    (the pessimistic path — its effects cannot be unwound on a failed
    optimistic validation): it must be read-only, must not touch the
    storage layer, and the image bytes are only meaningful until [f]
    returns.  Latch-free readers that can accumulate purely should use
    {!fold_pages}. *)

val fold_pages :
  t -> init:'a -> f:('a -> page:int -> bytes -> ((int -> int -> unit) -> unit) -> 'a) -> 'a
(** Fold [f] over the pages in reverse scan order (newest page first),
    latch-free: [f acc ~page img iter] runs under {!Buffer_pool.read_page}
    with the page's id, its image and an iterator that calls [g slot off]
    for each live record, in descending slot order, so a fold that conses
    each record builds a list in scan order.  [f] must be pure with respect to [acc] and external state (it
    may be re-run against a torn image and that attempt's result
    discarded) and must not retain the image; only a validated attempt's
    result is threaded on, so per-page tallies in it stay exact.  The one
    external write allowed is one that no torn image can make wrong, such
    as the reader's content-validated decode cache.  The reader hot path.
    When the file has more pages than the pool has frames, pages are read
    with {!Buffer_pool.scan_page}, so the scan does not flush the pool. *)

val fold_raw :
  t -> init:'a -> f:('a -> page:int -> slot:int -> bytes -> int -> 'a) -> 'a
(** A latch-free per-record fold that passes each record's page id and
    slot, for callers that need to address records (e.g. GC building a
    victim list) without the per-record allocation of a {!rid}.  Same
    purity contract as {!fold_pages}. *)

val fold : t -> init:'a -> f:('a -> rid -> Vnl_relation.Tuple.t -> 'a) -> 'a

val to_list : t -> (rid * Vnl_relation.Tuple.t) list

val tuple_count : t -> int

val page_count : t -> int

val latch_acquisitions : t -> int
(** Tuple-modification latch traffic, for the latching report. *)

val rid_equal : rid -> rid -> bool

val buffer_pool : t -> Buffer_pool.t
(** The pool this file performs its I/O through. *)

val pages : t -> int list
(** Page ids in scan (allocation) order; what a catalog must persist to
    re-attach the file after a restart. *)

val pages_rev : t -> int list
(** The pages newest first, in O(1): an immutable list, replaced exactly
    when the file allocates, so physical equality tells growth. *)

val attach : Buffer_pool.t -> Vnl_relation.Schema.t -> pages:int list -> t
(** Re-open a heap file over existing pages (in scan order): occupancy and
    free-space tracking are rebuilt by scanning the pages.  The page images
    must have been written by a heap file of the same schema. *)
