(** Batched maintenance application (§3.3 Tables 2-4 over whole batches).

    One executor runs every batch, given one {!change} per key: the rid
    the unique-key index gave for the key, and the key's operations.  The
    changes are grouped by the page of their rid ({!group}); each page is
    one page run ({!apply_in_place}) in which every record's operations
    run in order through {!Maintenance}'s Tables 2-4 transitions on its
    page bytes, its secondary entries moving inside the run.  No stored
    record is copied or becomes a tuple, and a key touched k times costs
    k transitions but one physical action.  Records whose operations end
    in a physical delete (Table 4 row 2 over this transaction's fresh
    insert) are deleted after the runs; absent keys go into insert runs
    in input order ({!apply_fresh}), and one whose operations leave it
    absent writes nothing.

    - {b The refresh} ({!Pipeline}) passes the view's classifier, which
      decides each key's operation inside its page run from the record's
      cells.  It writes each key once, at a VN above every stored stamp,
      so its runs meet row 1 only and refuse a record already stamped at
      the round's VN ([~row2:false]).
    - {b Hand-driven batches} ({!apply}, under [Twovnl.Txn.apply_batch])
      are validated whole before any write: each key is probed once
      (slot 1's stamp, read on the record's bytes) and the batch is
      rejected if a key's operations break its liveness (an update or
      delete of a key that is not live, an insert over a live one,
      whoever stamped it) or a value fails the transitions' own checks
      ({!Maintenance.check_insert}, {!Maintenance.check_update}).  Then
      {!run} executes them with row 2 allowed, as one operation at a time
      would.  [Summary.apply_batch] feeds {!run} the classifier directly.

    Applying a batch produces byte-identical table state and identical
    reader-visible results at every session VN as applying its operations
    one at a time, with two deliberate exceptions: a batch that inserts a
    {e brand-new} key and deletes it again writes nothing, where per-op
    application would occupy and free a slot (which can shift later fresh
    inserts); and a rejected hand-driven batch leaves the table untouched,
    where per-op application would have applied the prefix.

    {b Failure.}  A failure inside the runs (a classifier that raises, a
    transition that refuses, a record stamped at the refresh's VN) leaves
    the records before it written; the transaction's abort
    ([Twovnl.Txn.abort], the no-log revert) restores them.  Tables
    without a unique key accept insert-only batches, one insert run. *)

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

type change = {
  key : Vnl_relation.Value.t list;  (** The record's unique key. *)
  rid : Vnl_storage.Heap_file.rid option;
      (** Where the unique-key index held the key when the change was
          planned ({!Vnl_query.Table.probe}); [None] when absent. *)
  decide : (int -> Vnl_relation.Value.t) option -> op list;
      (** The key's operations, in order, given a reader of the record's
          current base cells by base position ([None] when the key is
          absent or logically deleted); [[]] writes nothing.  Called once,
          inside the record's page run (or, for an absent key, before its
          insert run), so it must not touch storage.  The refresh passes
          the view's classifier here; a hand-driven batch, the key's
          operations whatever the cells. *)
}
(** One key's share of a batch.  A batch carries at most one change per
    key. *)

type runs
(** A partition's changes grouped for execution: present keys by page
    (rid order), absent keys in input order. *)

val group : change list -> runs
(** Group the changes by the page of their rid, reading no page. *)

val apply_in_place :
  row2:bool ->
  stats:Maintenance.stats ->
  pad:(op -> op) ->
  on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  runs ->
  int list
(** Run every present key's operations, through [pad] (which fills in the
    columns a view frozen before an [add_column] lacks), on its record,
    one page run per page; then delete the records they left deleted.
    [row2]: whether a record already stamped at [vn] may be met — [false]
    for the refresh, whose same-VN guard refuses it, [true] for
    hand-driven batches.  [on_over_delete] fires for an insert over an
    older logical delete; [was_insert_over_delete] (default
    everywhere-false, all row 1 needs) names records earlier statements
    re-inserted so.  [stats] receives the counts.  Returns the pages
    written, for the stripe's flush. *)

val apply_fresh :
  stats:Maintenance.stats ->
  pad:(op -> op) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  runs ->
  Vnl_storage.Heap_file.rid list
(** Decide every absent key ([decide None], through [pad]) and insert the
    keys its operations leave live as insert runs, in input order (the
    slots one-by-one inserts would have taken), each record's operations
    running on its slot's bytes.  Raises [Invalid_argument] on an update
    or delete of an absent key.  Returns the rids inserted. *)

val run :
  stats:Maintenance.stats ->
  pad:(op -> op) ->
  on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  runs ->
  unit
(** The executor for one statement of a hand-driven transaction:
    {!apply_in_place} with row 2 allowed, then {!apply_fresh}. *)

val apply :
  ?stats:Maintenance.stats ->
  ?on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  op list ->
  outcome
(** Validate a whole batch at maintenance version [vn], then {!run} it as
    one change per key (absent keys in first-touch order).  [on_over_delete] and
    [was_insert_over_delete] carry the transaction-level bookkeeping for
    inserts over older logical deletes (exactly as in
    {!Maintenance.apply_insert} / [apply_delete]); within the batch that
    bookkeeping is tracked automatically.  [stats] receives the same
    logical counts as per-op application and the {e reduced} physical
    counts.  A rejected batch ([Invalid_argument], {!Op.Impossible})
    raises before any write. *)
