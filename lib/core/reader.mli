(** Reader-side version extraction (§3.2, Table 1; §5 for nVNL).

    A reader with [sessionVN] = s must see the tuple version that includes
    the effects of every maintenance transaction with maintenanceVN <= s and
    no others.  Per tuple there are three cases:

    + s >= tupleVN: read the current version;
    + tupleVN{n-1} - 1 <= s < tupleVN: read the pre-update version of the
      least slot whose tupleVN > s (for 2VNL this collapses to
      s = tupleVN - 1);
    + s < tupleVN{n-1} - 1 with every slot occupied: the session has
      {e expired} — the needed version was pushed out.

    Table 1 then interprets the governing slot's [operation]: a current
    version with operation = delete is ignored, a pre-update version with
    operation = insert is ignored, and pre-update reads take pre-update
    values for updatable attributes and current values for the rest. *)

exception Session_expired of { session_vn : int; tuple_vn : int }
(** Raised by the per-tuple expiry check (the first detection mechanism of
    §3.2); the coarse global check is {!val:expired_by_state}. *)

type case =
  | Read_current
  | Read_pre_update of int  (** Governing slot (1-based). *)
  | Ignore_tuple
  | Expired of int  (** tupleVN{n-1} that proves expiry. *)

val classify : Schema_ext.t -> session_vn:int -> Vnl_relation.Tuple.t -> case
(** Pure case analysis, before the Table 1 operation filter. *)

val extract :
  Schema_ext.t -> session_vn:int -> Vnl_relation.Tuple.t -> Vnl_relation.Tuple.t option
(** The base tuple this reader sees, or [None] if the tuple is invisible at
    [session_vn].  Raises {!Session_expired} in the expired case. *)

type cache
(** A decoded-record cache for one table.  Per heap page it holds, for
    each record slot, the base tuple last decoded there and a snapshot of
    the exact base-cell bytes that tuple was decoded from
    ([Schema.width] of the base schema per slot, one block per page),
    with a per-page seqlock guarding refills.  It serves the extractions
    of one table, under one base layout: each {!Twovnl} handle owns one,
    so it dies with its physical table (drop, evolution, reopen).  Reader
    domains may share it without a lock. *)

val create_cache : unit -> cache

val filling : cache -> int
(** Pages whose refill is in progress (their seqlock is odd): 0 whenever
    no extraction is running, also after one that raised. *)

val visible_relation :
  ?cache:cache ->
  Schema_ext.t -> session_vn:int -> Vnl_query.Table.t -> Vnl_relation.Tuple.t list
(** Extract every visible base tuple from an extended table, in scan
    order.  A record that reads its current version is served from
    [cache] (default: a fresh, empty one) when its base-cell bytes equal
    its slot's snapshot; otherwise the cells whose bytes differ are copied
    into the snapshot and decoded from it, the others shared with the
    slot's old tuple, and the new tuple is cached.  Either way the row is
    exactly the decode of the bytes being read, so the cache needs no
    invalidation.  A record on a page that another domain is refilling
    is decoded without touching the cache.  Rows may be shared with
    earlier extractions through the cache; tuples are immutable. *)

val expired_by_state : session_vn:int -> current_vn:int -> maintenance_active:bool -> bool
(** The global pessimistic check of §4.1: the session is still valid iff
    [sessionVN = currentVN], or [sessionVN = currentVN - 1] with no active
    maintenance transaction. *)
