(** A simulated external data source.

    Holds the base relation the warehouse views summarize, applies change
    batches, and — crucially for testing — recomputes any view from scratch,
    giving the ground truth that incremental maintenance must match. *)

type t

val create : Vnl_relation.Schema.t -> t

val schema : t -> Vnl_relation.Schema.t

val apply : t -> Delta.change list -> unit
(** Apply changes to the base relation, all or nothing.  [Delete]/[Update]
    identify the old row by full-tuple equality; when it is absent, raises
    [Invalid_argument] and leaves the relation as it was before the
    batch. *)

val rows : t -> Vnl_relation.Tuple.t list

val row_count : t -> int

val compute_view : t -> View_def.t -> Vnl_relation.Tuple.t list
(** Full recomputation of the view over the current base data, in
    first-group-seen order — the oracle for incremental maintenance. *)
