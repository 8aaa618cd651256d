(** A simulated external data source.

    Holds the base relation the warehouse views summarize, applies change
    batches, and — crucially for testing — recomputes any view from scratch,
    giving the ground truth that incremental maintenance must match.

    Rows are kept in arrival order with a hash index from a row to its live
    copies, so applying a change costs O(1) expected time whatever the base
    size, and allocates nothing beyond the row itself and, amortized, the
    batch's undo log. *)

type t

val create : Vnl_relation.Schema.t -> t

val schema : t -> Vnl_relation.Schema.t

val apply : t -> Delta.change list -> unit
(** Apply changes to the base relation, all or nothing.  [Delete]/[Update]
    identify the old row by full-tuple equality ({!Vnl_relation.Tuple.equal});
    among equal live rows they remove the one that arrived last.  When the
    old row is absent, raises [Invalid_argument] and leaves the relation —
    contents and row order — exactly as it was before the batch. *)

val rows : t -> Vnl_relation.Tuple.t list
(** The live rows, oldest first; an update's new row counts as arriving
    when the update is applied, so it goes last.  O(rows). *)

val row_count : t -> int
(** Number of live rows.  O(1). *)

val compute_view : t -> View_def.t -> Vnl_relation.Tuple.t list
(** Full recomputation of the view over the current base data, in
    first-group-seen order over {!rows} — the oracle for incremental
    maintenance. *)
