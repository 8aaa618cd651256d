(** Incremental maintenance of summary tables through a 2VNL maintenance
    transaction (§1-§2 context: propagate a batch of source changes to the
    warehouse views).

    For each net group delta: an absent group is inserted; a present group
    has its aggregates adjusted by the delta; a group whose support count
    drops to zero is logically deleted.  All tuple operations flow through
    the 2VNL decision tables, so readers stay consistent throughout.

    One classifier and one executor serve both paths.  Each only probes
    every group's rid; the executor ({!Vnl_core.Batch}) then classifies
    and writes every group on its page bytes, in one page run per page,
    so a stored record is never decoded into a tuple.  {!plan_batch}
    feeds a refresh round; {!apply_batch} runs the same changes inside a
    hand-driven transaction. *)

type outcome = {
  groups_inserted : int;
  groups_updated : int;
  groups_deleted : int;
}

val apply_batch :
  Vnl_core.Twovnl.Txn.m -> View_def.t -> Delta.change list -> outcome
(** Fold the batch into net group deltas and apply them to the view's
    warehouse table (which must be registered under [View_def.name]):
    {!plan_batch}'s changes, probed against the transaction's table, run
    by {!Vnl_core.Twovnl.Txn.apply_changes}.  Raises [Invalid_argument] if
    a delta would drive an aggregate of an absent group (inconsistent
    source batch), and {!Vnl_core.Op.Impossible} or [Invalid_argument] if
    a transition refuses.  Classification runs inside the page runs, so
    such a failure leaves the groups before it written: the caller must
    abort the transaction ({!Vnl_core.Twovnl.Txn.abort} reverts them),
    not commit it. *)

val plan_batch : Vnl_core.Twovnl.t -> View_def.t -> Delta.change list -> Vnl_core.Batch.change list
(** The refresh's changes for one view: the batch's net group deltas, each
    with the rid the unique-key hash index holds for its group (probed
    with the hash the netting pass computed; no page is read) and the
    view's classifier as its [decide] — absent or logically deleted group
    → insert, present → aggregate adjust, support to zero → delete.  The
    round runs that classifier on each record's cells in its page run
    ({!Vnl_core.Batch.apply_in_place}), where it may raise as
    {!apply_batch} does.  Must be called outside any maintenance mutation
    (the probes read the pre-refresh state). *)

val outcome_of_stats : Vnl_core.Maintenance.stats -> outcome
(** The outcome a round's logical counts for one view describe
    ({!Vnl_core.Pipeline.stats}). *)

val pp_outcome : Format.formatter -> outcome -> unit
