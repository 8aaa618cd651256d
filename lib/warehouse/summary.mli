(** Incremental maintenance of summary tables through a 2VNL maintenance
    transaction (§1-§2 context: propagate a batch of source changes to the
    warehouse views).

    For each net group delta: an absent group is inserted; a present group
    has its aggregates adjusted by the delta; a group whose support count
    drops to zero is logically deleted.  All tuple operations flow through
    the 2VNL decision tables, so readers stay consistent throughout. *)

type outcome = {
  groups_inserted : int;
  groups_updated : int;
  groups_deleted : int;
}

val apply_batch :
  Vnl_core.Twovnl.Txn.m -> View_def.t -> Delta.change list -> outcome
(** Fold the batch into net group deltas and apply them to the view's
    warehouse table (which must be registered under [View_def.name]).
    Raises [Invalid_argument] if a group with no support count would need
    deletion inference, or if a delta would drive an aggregate of an absent
    group (inconsistent source batch). *)

val plan_batch :
  Vnl_core.Twovnl.t ->
  View_def.t ->
  Delta.change list ->
  Vnl_core.Batch.op list
  * (Vnl_storage.Heap_file.rid * Vnl_relation.Tuple.t) option array
  * outcome
(** Classify the batch's net group deltas against the view table's current
    state {e without} applying anything, through the same classifier as
    {!apply_batch} (absent group → insert, present → aggregate adjust,
    support to zero → delete), with the raw lookups kept.  Returns the
    logical operation list (one per key) for {!Warehouse.refresh}'s round,
    the pass's raw lookup for each operation, aligned with the list (for
    {!Vnl_core.Batch.stage}'s [resolved], so the stripes do not resolve the
    same keys a second time), and the outcome the refresh reports once the
    round has published.  Must be called outside any maintenance mutation
    (it reads the pre-refresh state). *)

val merge_union : View_def.t -> Vnl_relation.Tuple.t list list -> Vnl_relation.Tuple.t list
(** Merge per-shard instances of one view template into the logical union
    view: tuples sharing a group key have their aggregates added
    ([Value.add] per column), others pass through; result in first-seen
    order across the inputs.  SUM/COUNT distribute over the shards'
    partition of the base rows, so the merge of consistent per-shard
    snapshots equals the view over the union of the bases. *)

val pp_outcome : Format.formatter -> outcome -> unit
