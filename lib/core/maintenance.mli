(** Maintenance-transaction record operations (§3.3, Tables 2-4; §5).

    Given the maintenance transaction's [maintenanceVN] and a target tuple's
    [tupleVN]/[operation], each logical operation maps to a physical action
    that preserves the pre-update version(s):

    - {b Insert} (Table 2): no key conflict — physically insert a fresh
      extended tuple.  Conflict with an older-transaction tuple (necessarily
      logically deleted) — push back, null the slot-1 pre-values, overwrite
      the current values.  Conflict with a same-transaction delete — net
      effect update.
    - {b Update} (Table 3): older transaction — push back, copy current
      values into slot-1 pre-values, install the new values.  Same
      transaction — just overwrite current values (net effect per {!Op}).
    - {b Delete} (Table 4): older transaction — push back, copy current
      values to pre-values, mark operation delete (the tuple is {e not}
      physically deleted).  Same-transaction insert — physically delete;
      same-transaction update — mark delete.

    "Impossible" cells raise {!Op.Impossible}.  For nVNL, "push back" shifts
    every version slot down by one, discarding slot n-1.  Per §4 the new
    state replaces the old record on its page: the transitions below act on
    the record's bytes, and every maintenance path — the per-operation
    appliers and {!Batch}'s page runs, hand-driven or refresh — runs
    them. *)

type stats = {
  mutable logical_inserts : int;
  mutable logical_updates : int;
  mutable logical_deletes : int;
  mutable physical_inserts : int;
  mutable physical_updates : int;
  mutable physical_deletes : int;
}
(** Physical-vs-logical operation accounting for the experiments. *)

val fresh_stats : unit -> stats

val add_stats : into:stats -> stats -> unit

(** {2 Tables 2-4 on record bytes}

    The one implementation of Tables 2-4.  Each transition acts on a
    record's bytes ([img], record at byte offset [off]) — a page slot
    inside a page run ({!Vnl_query.Table.rewrite_many}) or an insert run —
    reading slot 1's cells and the base cells in place and writing only
    the cells it changes.  Slot 1's stamp selects
    the row: below [vn], row 1 (an older transaction's record: push back,
    then write slot 1); at [vn], row 2 (this transaction's record: the net
    effect per {!Op.combine_same_txn}, no push-back).  A stamp above [vn]
    raises [Invalid_argument].  Every value is validated before the first
    byte lands, so a rejected transition ([Invalid_argument],
    {!Op.Impossible}) leaves the bytes as they were. *)

val current_cells :
  row2:bool -> Schema_ext.t -> vn:int -> bytes -> int -> (int -> Vnl_relation.Value.t) option
(** A page run's entry point: a reader of the record's current base cells
    by base position, or [None] when the record is logically deleted (what
    a maintenance read sees, per the first row of Table 1).  Raises
    [Invalid_argument] on a record stamped above [vn], and, unless [row2],
    on one stamped at [vn]: the refresh's guard, since a refresh writes
    each key once and so meets row 1 only.  The reader decodes cells in
    place, so it is valid only while the bytes are. *)

val check_insert : Schema_ext.t -> Vnl_relation.Tuple.t -> unit
(** The value checks {!insert_record} makes: the base tuple's arity and
    every cell's type.  Raises [Invalid_argument]. *)

val check_update : Schema_ext.t -> (int * Vnl_relation.Value.t) list -> unit
(** The value checks {!update_record} makes: every assigned position is
    updatable (so no key attribute) and every value has its type.  Raises
    [Invalid_argument]. *)

val insert_record :
  ?on_over_delete:(unit -> unit) ->
  Schema_ext.t ->
  vn:int ->
  bytes ->
  int ->
  Vnl_relation.Tuple.t ->
  unit
(** Table 2 rows 1 and 2: insert the base tuple over the record with its
    key.  [on_over_delete] fires on row 1 (an insert over an older
    transaction's logical delete), the bookkeeping no-log rollback needs. *)

val update_record :
  Schema_ext.t -> vn:int -> bytes -> int -> (int * Vnl_relation.Value.t) list -> unit
(** Table 3; the assignments give new values by base position and may
    touch only updatable attributes. *)

val delete_record :
  ?insert_over_delete:bool -> Schema_ext.t -> vn:int -> bytes -> int -> bool
(** Table 4; [true] when the record must be physically deleted (row 2
    over this transaction's fresh insert), in which case no byte changed.
    [insert_over_delete] marks a record this transaction re-inserted over
    an older logical delete: deleting it restores the deleted state
    instead (a correction to the paper's row 2, which assumes the insert
    was fresh) — the pushed-back slots shift forward under nVNL, and
    under plain 2VNL slot 1 is re-stamped deleted at [vn - 1]. *)

(** {2 Byte helpers}

    The slot moves the transitions are built from: the no-log rollback
    ({!Rollback}) reverts records with them, and the property tests check
    {!shift_forward_record} against {!push_back_record}. *)

val record_stamp : Schema_ext.t -> bytes -> int -> (int * Op.t) option
(** Slot 1's tupleVN and operation; [None] when slot 1 is empty. *)

val push_back_record : Schema_ext.t -> bytes -> int -> unit
(** Shift slots 1..n-2 into 2..n-1 (dropping the oldest); slot 1 is left
    for the caller to fill.  For 2VNL this writes nothing. *)

val shift_forward_record : Schema_ext.t -> bytes -> int -> unit
(** Inverse of {!push_back_record}: shift slots 2..n-1 into 1..n-2 and
    empty the last slot.  Exact for every session inside the version
    window. *)

val restamp : Schema_ext.t -> vn:int -> Op.t -> bytes -> int -> unit
(** Write slot 1's tupleVN and operation. *)

val restore_current : Schema_ext.t -> bytes -> int -> unit
(** Copy slot 1's pre-update values back over the updatable attributes. *)

(** {2 Per-operation appliers}

    Each probes the unique key's rid or takes a rid, and runs its
    transition as a one-record page run. *)

val apply_insert :
  ?stats:stats ->
  ?on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  Vnl_relation.Tuple.t ->
  Vnl_storage.Heap_file.rid
(** Table 2 on a base tuple ([MV]); probes the unique key for conflicts when
    the schema has one.  Returns the rid holding the logical tuple.
    [on_over_delete] fires when the insert lands on a tuple logically
    deleted by an {e older} transaction (Table 2 row 1) — the bookkeeping
    no-log rollback needs. *)

val apply_update :
  ?stats:stats ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  Vnl_storage.Heap_file.rid ->
  (int * Vnl_relation.Value.t) list ->
  unit
(** Table 3 on the tuple at [rid]; the assignment list gives new values by
    {e base} attribute position and may touch only updatable attributes.
    Raises {!Op.Impossible} on a logically deleted target and
    [Invalid_argument] on non-updatable positions or a free slot. *)

val apply_delete :
  ?stats:stats ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  Vnl_storage.Heap_file.rid ->
  unit
(** Table 4 on the tuple at [rid], physically deleting the record when
    {!delete_record} says so.  [was_insert_over_delete] (default
    everywhere-false) gives {!delete_record}'s [insert_over_delete] per
    rid. *)

val is_logically_live : Schema_ext.t -> Vnl_relation.Tuple.t -> bool
(** Current version exists (operation of slot 1 is not delete); what a
    maintenance read sees, per the first row of Table 1. *)
