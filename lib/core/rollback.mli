(** Rolling back a maintenance transaction without before-image logging
    (§7).

    Every tuple the transaction touched still carries its pre-update
    version, so an abort can revert tuple state from the tuple itself:

    - a fresh insert is physically deleted;
    - an insert over a logically deleted tuple is re-marked deleted, with
      its pre-update values restored from the pushed-back delete slot when
      one exists (nVNL);
    - an update or logical delete has its current values restored from the
      slot-1 pre-update values.

    Reverted tuples are stamped [tupleVN = vn - 1]: every session that is
    valid while the aborting transaction runs (necessarily
    [sessionVN = vn - 1], by the expiry rule) and every later session reads
    the restored current version, and sessions governed by older slots are
    untouched.  The single approximation, documented in DESIGN.md, is that
    under plain 2VNL an insert-over-delete cannot recover the deleted
    tuple's pre-delete values (they were nulled per Table 2 row 1) — those
    are only needed by sessions that are already expired. *)

val revert_above :
  Schema_ext.t ->
  Vnl_query.Table.t ->
  current:int ->
  over_deleted:(Vnl_storage.Heap_file.rid -> bool) ->
  int
(** Scan the table and revert every tuple whose slot-1 version exceeds
    [current] (the last {e published} VN), each at its own stamp; returns
    the number reverted.  For a transaction of one VN that is every tuple
    stamped [current + 1]; for one of several VNs (a pipelined round),
    every tuple of its unpublished stripes — sound because a round's
    partitions are key-disjoint, so no tuple carries more than one
    unpublished VN.
    [over_deleted] tells apart fresh inserts from inserts over deleted keys
    (in-memory transaction bookkeeping, not a log). *)
