(** Source-side change records and their aggregation into per-group net
    deltas.

    Sources queue changes between warehouse refreshes (§1); a maintenance
    transaction propagates the whole batch.  [net_group_deltas] folds a
    batch into one net contribution per affected group — the standard
    incremental-view-maintenance move that also yields the {e net effect}
    semantics §3.3 requires. *)

type change =
  | Insert of Vnl_relation.Tuple.t
  | Delete of Vnl_relation.Tuple.t
  | Update of Vnl_relation.Tuple.t * Vnl_relation.Tuple.t  (** old, new. *)

type group_delta = {
  key : Vnl_relation.Value.t list;  (** Group-by values. *)
  hash : int;
      (** [key]'s {!Vnl_index.Hash_index.Key.hash}, computed once by the
          netting pass and reused by the refresh's index probe. *)
  agg_delta : Vnl_relation.Value.t list;  (** Net change per aggregate. *)
  count_delta : int;  (** Net change in contributing rows. *)
}

val net_group_deltas : View_def.t -> change list -> group_delta list
(** Net per-group deltas of a batch, in first-touched order.  Groups whose
    net delta is entirely zero (including count) are dropped.  A group
    whose [count_delta] is 0 had its rows cancel exactly, so float sums
    within a relative tolerance of the accumulated magnitude (e.g. the
    [(0.1 +. 0.2) -. 0.3] cancellation residue) are cleaned to zero first
    — without this the phantom delta survives netting and smears epsilon
    onto groups the batch never logically changed. *)

val change_count : change list -> int * int * int
(** (inserts, deletes, updates) in the batch. *)
