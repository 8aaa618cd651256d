(** Batched maintenance application (§3.3 Tables 2-4 over whole batches).

    [apply] takes an entire maintenance batch against one relation and
    reduces it to the minimum physical work before touching storage:

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
    key accept insert-only batches, applied in order. *)

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
    before any other writer touches the relation.  The pipelined maintenance
    path stages every partition up front (serially, against the pre-round
    state, which partition key-disjointness makes sound) and ships the plans
    to worker domains. *)

val stage :
  ?stats:Maintenance.stats ->
  ?resolved:(Vnl_storage.Heap_file.rid * Vnl_relation.Tuple.t) option array ->
  ?on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  op list ->
  staged
(** Group, resolve, and fold a batch at maintenance version [vn] without
    writing.  [resolved], when given, replaces grouping and the sorted
    index pass: [resolved.(i)] is the stored record of the [i]-th
    operation's key, exactly as {!Vnl_query.Table.find_many_by_key} would
    return it against the {e same} table state (raw, including logically
    deleted records), and passing it promises the batch carries at most
    one operation per key (e.g. it came out of a net-effect
    classification).  The refresh passes the lookups its classification
    pass already performed; a false promise stages one physical action per
    duplicate and corrupts the net effect.  Raises [Invalid_argument] if
    its length differs from the batch's.  [on_over_delete] and
    [was_insert_over_delete] carry the transaction-level bookkeeping for
    inserts over older logical deletes (exactly as in
    {!Maintenance.apply_insert} / [apply_delete]); within the batch that
    bookkeeping is tracked automatically.  [stats] receives the logical
    counts.  A rejected operation (impossible transition, assignment to a
    key or non-updatable attribute) raises here, before any write.

    Each stored record is copied once, and the Tables 2-4 transitions then
    write that private image in place. *)

val apply_updates :
  ?stats:Maintenance.stats -> Vnl_query.Table.t -> staged -> Vnl_storage.Heap_file.rid list
(** Execute only the plan's in-place updates, in rid order, as page runs
    ({!Vnl_query.Table.update_many}); returns the rids written.  Updates
    never change keys or slot occupancy, so — when the plan's index
    footprint is empty — this phase is safe to run on a worker domain
    concurrently with other partitions' update phases: the heap latch
    serializes the byte writes and no shared index is touched. *)

val apply_structural :
  ?stats:Maintenance.stats -> Vnl_query.Table.t -> staged -> Vnl_storage.Heap_file.rid list
(** Execute the plan's deletes (rid order) then fresh inserts (one batched
    {!Vnl_query.Table.insert_many}); returns every rid written.  Structural
    actions move slots and mutate the unique index, so the pipeline runs
    them inside the serialized in-order token section — which is also what
    keeps slot assignment byte-identical to the serial reference. *)

val apply_staged :
  ?stats:Maintenance.stats ->
  Vnl_query.Table.t ->
  staged ->
  outcome * Vnl_storage.Heap_file.rid list
(** Execute a staged plan: updates in rid order, then deletes in rid order,
    then fresh inserts as one batched insert ({!Vnl_query.Table.insert_many}).
    [stats] receives the physical counts.  Returns the batch outcome and
    {e every} rid physically written — updated, deleted, and freshly
    inserted — which is exactly the page set the pipelined path must flush
    before publishing the stripe's VN. *)

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

val pp_outcome : Format.formatter -> outcome -> unit
