(** Batched maintenance application (§3.3 Tables 2-4 over whole batches).

    Two executors share the Tables 2-4 transitions of {!Maintenance}.

    {b Hand-driven batches} ({!apply}, under [Twovnl.Txn.apply_batch])
    take an entire maintenance batch against one relation and reduce it
    to the minimum physical work before touching storage:

    + {b Net-effect reduction}: operations are grouped by unique key and
      folded through the same Tables 2-4 transitions the per-op path uses
      ({!Maintenance.insert_tuple} / [update_tuple] / [delete_tuple]), on an
      in-memory record image — a key touched k times costs k (cheap, pure)
      transitions but exactly one physical action, instead of k probe +
      decode + rewrite cycles.
    + {b One key probe per key}: every key→rid lookup is one probe of the
      unique-key hash index ({!Vnl_query.Table.find_many_by_key}), and the
      hit records are fetched in ascending (page, slot) order.
    + {b Page-ordered apply}: the per-key physical actions are applied in
      ascending (page, slot) order (fresh inserts last, in first-touch
      order), so a small buffer pool sees near-sequential page access
      instead of one random page per logical operation.

    Because the batched fold and the per-op appliers run the {e same}
    transition code, applying a batch produces byte-identical table state
    and identical reader-visible results at every session VN as applying
    its operations one at a time — the correctness contract the randomized
    differential test enforces.  Two deliberate exceptions, both outside
    the paper's maintenance pattern:

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
    grouped by the page of their rid; each page is one page run
    ({!Vnl_query.Table.rewrite_many}) in which every record is classified
    from its cells read in place and written through the row-1
    transitions on bytes ({!Maintenance.update_record} and its
    siblings).  No stored record becomes a tuple.  Changes whose key is
    absent become fresh inserts, written as insert runs.  A refresh
    writes each key once, at a VN above every stored stamp, so only row 1
    of Tables 2-4 occurs; the records come out byte-identical to the
    hand-driven path's. *)

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

type staged
(** A batch's complete write plan: grouped, resolved, and folded, with every
    physical action decided but nothing written.  Updates and deletes are
    rid-sorted, fresh inserts carry their extended tuples in first-touch
    order.  Staging reads the table (index probes, record fetches); a staged
    plan is only valid against the table state it was staged from — apply it
    before any other writer touches the relation. *)

val stage :
  ?stats:Maintenance.stats ->
  ?on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  op list ->
  staged
(** Group, resolve, and fold a batch at maintenance version [vn] without
    writing.  [on_over_delete] and [was_insert_over_delete] carry the
    transaction-level bookkeeping for inserts over older logical deletes
    (exactly as in {!Maintenance.apply_insert} / [apply_delete]); within
    the batch that bookkeeping is tracked automatically.  [stats] receives
    the logical counts.  A rejected operation (impossible transition,
    assignment to a key or non-updatable attribute) raises here, before
    any write.

    Each stored record is copied once, and the Tables 2-4 transitions then
    write that private image in place. *)

val apply_staged :
  ?stats:Maintenance.stats ->
  Vnl_query.Table.t ->
  staged ->
  outcome * Vnl_storage.Heap_file.rid list
(** Execute a staged plan: updates in rid order as page runs
    ({!Vnl_query.Table.update_many}), then deletes in rid order, then
    fresh inserts as insert runs ({!Vnl_query.Table.insert_many}).
    [stats] receives the physical counts.  Returns the batch outcome and
    {e every} rid physically written — updated, deleted, and freshly
    inserted. *)

val apply :
  ?stats:Maintenance.stats ->
  ?on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  op list ->
  outcome
(** [stage] then [apply_staged] back to back: apply a whole batch at
    maintenance version [vn].  [stats] receives the same logical counts as
    per-op application and the {e reduced} physical counts. *)


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
