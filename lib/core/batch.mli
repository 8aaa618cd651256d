(** Batched maintenance application (§3.3 Tables 2-4 over whole batches).

    Both executors run the Tables 2-4 transitions of {!Maintenance} on
    record bytes ({!Maintenance.insert_record} and its siblings); they
    differ only in whose bytes and when.

    {b Hand-driven batches} ({!apply}, under [Twovnl.Txn.apply_batch])
    take an entire maintenance batch against one relation and reduce it
    to the minimum physical work before touching storage:

    + {b One key probe per key}: operations are grouped by unique key,
      each key is probed once in the unique-key hash index
      ({!Vnl_query.Table.probe}), and each hit record's bytes are copied
      out in ascending (page, slot) order.
    + {b Net-effect reduction}: each key's operations are folded through
      the transitions on that private copy (or, for an absent key, on a
      freshly encoded record) — a key touched k times costs k in-memory
      transitions but exactly one physical action.  A record this
      transaction already stamped takes row 2 of the tables, as it would
      one operation at a time.
    + {b Page-ordered apply}: each copy is written back over its record
      in ascending (page, slot) order as page runs
      ({!Vnl_query.Table.rewrite_many}, which moves secondary index
      entries whose cells changed), then physical deletes, then fresh
      inserts as insert runs in first-touch order.

    Applying a batch produces byte-identical table state and identical
    reader-visible results at every session VN as applying its operations
    one at a time — the correctness contract the randomized differential
    test enforces.  Two deliberate exceptions, both outside the paper's
    maintenance pattern:

    - A batch that inserts a {e brand-new} key and deletes it again nets to
      no storage action at all, where per-op application would transiently
      occupy (and then free) a slot, which can shift the slots later fresh
      inserts of the same batch land on.  Logical state and reader results
      are still identical.  (Re-deleting a key this transaction re-inserted
      over an {e older} logical delete — the Table 4 row 2 correction — is
      exact, including under nVNL.)
    - Errors (impossible transitions, invalid assignments) are raised
      during the in-memory fold, before any write: a rejected batch leaves
      the table untouched, where per-op application would have applied the
      prefix.

    Assignments may not touch key attributes (net-effect grouping relies on
    stable keys); [Invalid_argument] otherwise.  Tables without a unique
    key accept insert-only batches, applied in order.

    {b The refresh} ({!change}, {!group}, {!apply_in_place},
    {!apply_fresh}, under {!Pipeline}) receives one {!change} per key,
    each already carrying the rid the unique-key index gave for it, and
    touches each changed record once, on its page bytes.  The changes are
    grouped by the page of their rid; each page is one page run in which
    every record is classified from its cells read in place
    ({!Maintenance.current_cells}) and written by its transition.  No
    stored record becomes a tuple.  Changes whose key is absent become
    fresh inserts, written as insert runs.  A refresh writes each key
    once, at a VN above every stored stamp, so its page runs meet row 1
    only and reject a record already stamped at the round's VN. *)

type op =
  | Insert of Vnl_relation.Tuple.t  (** Base tuple to logically insert. *)
  | Update of Vnl_relation.Value.t list * (int * Vnl_relation.Value.t) list
      (** Key and assignments by base position (updatable attributes
          only). *)
  | Delete of Vnl_relation.Value.t list  (** Key. *)

type outcome = {
  logical_ops : int;
  distinct_keys : int;
  folded_ops : int;  (** Logical operations absorbed by net-effect
                         reduction: [logical_ops] minus physical actions. *)
  physical_inserts : int;
  physical_updates : int;
  physical_deletes : int;
}

val apply :
  ?stats:Maintenance.stats ->
  ?on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  op list ->
  outcome
(** Apply a whole batch at maintenance version [vn].  [on_over_delete]
    and [was_insert_over_delete] carry the transaction-level bookkeeping
    for inserts over older logical deletes (exactly as in
    {!Maintenance.apply_insert} / [apply_delete]); within the batch that
    bookkeeping is tracked automatically.  [stats] receives the same
    logical counts as per-op application and the {e reduced} physical
    counts.  A rejected operation (impossible transition, assignment to a
    key or non-updatable attribute) raises before any write. *)


(** {2 The refresh} *)

type change = {
  key : Vnl_relation.Value.t list;  (** The record's unique key. *)
  rid : Vnl_storage.Heap_file.rid option;
      (** Where the unique-key index held the key before the round began
          ({!Vnl_query.Table.probe}); [None] when absent. *)
  decide : (int -> Vnl_relation.Value.t) option -> op option;
      (** The change's operation on the key, given a reader of the
          record's current base cells by base position ([None] when the
          key is absent or logically deleted); [None] when the change
          writes nothing.  Called once, inside the record's page run (or,
          for an absent key, before its insert run), so it must not touch
          storage.  The refresh passes the view's classifier here. *)
}
(** One key's share of a refresh round.  A round carries at most one
    change per key. *)

type runs
(** A partition's changes grouped for execution: present keys by page
    (rid order), absent keys in input order. *)

val group : change list -> runs
(** Group the changes by the page of their rid, reading no page. *)

val apply_in_place :
  stats:Maintenance.stats ->
  pad:(op -> op) ->
  on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  runs ->
  int list
(** Classify and write every present key's record, one page run per page:
    the record's decision, through [pad] (which fills in the columns a
    view frozen before an [add_column] lacks), is applied as a row-1
    transition on its bytes, and its secondary entries move inside the
    run.  Such writes never move slots
    or touch the unique index.  [on_over_delete] fires for an insert over
    a logical delete.  [stats] receives the logical and physical counts.
    Returns the pages written, for the stripe's flush.  A failure (a
    rejected decision, an impossible transition, a record already stamped
    at [vn]) leaves the records before it written, for the transaction's
    abort to revert. *)

val apply_fresh :
  stats:Maintenance.stats ->
  pad:(op -> op) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  runs ->
  Vnl_storage.Heap_file.rid list
(** Classify every absent key ([decide None], through [pad]) and insert
    the fresh records as insert runs, in input order: the slots
    one-by-one inserts would have taken.  Raises [Invalid_argument] on an update or delete of an
    absent key.  Returns the rids inserted. *)
