(** Maintenance-transaction tuple operations (§3.3, Tables 2-4; §5).

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
    every version slot down by one, discarding slot n-1. *)

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

val push_back : Schema_ext.t -> Vnl_relation.Tuple.t -> Vnl_relation.Tuple.t
(** Shift slots 1..n-2 into 2..n-1 (dropping the oldest); slot 1 is left for
    the caller to fill.  For 2VNL this just discards slot 1's bookkeeping. *)

(** {2 Pure tuple transitions}

    The Tables 2-4 state machine on in-memory record images, with no
    storage access.  The [apply_*] functions below wrap each transition
    with one table probe and one physical action; {!Batch.apply} folds a
    whole batch of logical operations through the same transitions and
    performs a single physical action per key — running identical code is
    what guarantees the two paths produce byte-identical records. *)

val insert_tuple :
  ?on_over_delete:(unit -> unit) ->
  ?own:bool ->
  Schema_ext.t ->
  vn:int ->
  Vnl_relation.Tuple.t option ->
  Vnl_relation.Tuple.t ->
  Vnl_relation.Tuple.t
(** [insert_tuple ext ~vn existing base] is the record image after logically
    inserting [base]: a fresh extended tuple when [existing] is [None]
    (Table 2 row 3), otherwise the Table 2 row 1/2 resolution against the
    conflicting image.  [on_over_delete] fires on row 1 (insert over an
    older transaction's logical delete).  [own] declares that the caller
    holds the sole reference to [existing], letting the transition mutate it
    instead of copying (the batch fold's repeated-key fast path); the result
    may then alias the input. *)

val update_tuple :
  ?own:bool ->
  Schema_ext.t ->
  vn:int ->
  Vnl_relation.Tuple.t ->
  (int * Vnl_relation.Value.t) list ->
  Vnl_relation.Tuple.t
(** Table 3 on a record image; assignments are by base position and may
    touch only updatable attributes.  [own] as in {!insert_tuple}. *)

val delete_tuple :
  ?insert_over_delete:bool ->
  ?own:bool ->
  Schema_ext.t ->
  vn:int ->
  Vnl_relation.Tuple.t ->
  Vnl_relation.Tuple.t option
(** Table 4 on a record image.  [None] means the record is physically
    deleted (same-transaction fresh insert); [insert_over_delete] marks a
    record this transaction re-inserted over an older logical delete, for
    which the row 2 correction restores the deleted state instead. *)

(** {2 Row-1 transitions on record bytes}

    The refresh's page runs apply each changed record's transition on its
    page bytes ([img], record at byte offset [off]), writing only the
    cells the transition changes, with the bytes {!Vnl_relation.Tuple.encode_into}
    of the tuple transition's result would leave.  A refresh round writes
    each record once at a VN above its stamp, so only row 1 of Tables 2-4
    occurs: each function raises [Invalid_argument] on a record already
    stamped at or above [vn], as on any rejected value, before its first
    byte lands.  Impossible transitions raise {!Op.Impossible}. *)

val current_cells :
  Schema_ext.t -> vn:int -> bytes -> int -> (int -> Vnl_relation.Value.t) option
(** A reader of the record's current base cells by base position, or
    [None] when the record is logically deleted (what a maintenance read
    sees, per the first row of Table 1).  The reader decodes cells in
    place, so it is valid only while the page image is. *)

val insert_record :
  ?on_over_delete:(unit -> unit) ->
  Schema_ext.t ->
  vn:int ->
  bytes ->
  int ->
  Vnl_relation.Tuple.t ->
  unit
(** Table 2 row 1: insert the base tuple over the record's logical delete;
    [on_over_delete] fires as in {!insert_tuple}. *)

val update_record :
  Schema_ext.t -> vn:int -> bytes -> int -> (int * Vnl_relation.Value.t) list -> unit
(** Table 3 row 1, assignments as in {!update_tuple}. *)

val delete_record : Schema_ext.t -> vn:int -> bytes -> int -> unit
(** Table 4 row 1: a logical delete. *)

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
    [Invalid_argument] on non-updatable positions. *)

val apply_delete :
  ?stats:stats ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Schema_ext.t ->
  Vnl_query.Table.t ->
  vn:int ->
  Vnl_storage.Heap_file.rid ->
  unit
(** Table 4 on the tuple at [rid].  [was_insert_over_delete] (default
    everywhere-false) marks tuples this transaction re-inserted over a
    logically deleted key; deleting such a tuple restores the deleted
    marker instead of physically removing the record, because the record
    still carries pre-update history (a correction to the paper's row 2,
    which assumes the insert was fresh). *)

val shift_forward : Schema_ext.t -> Vnl_relation.Tuple.t -> Vnl_relation.Tuple.t
(** Inverse of {!push_back}: shift slots 2..n-1 into 1..n-2 and empty the
    last slot.  Exact for every session inside the version window. *)

val is_logically_live : Schema_ext.t -> Vnl_relation.Tuple.t -> bool
(** Current version exists (operation of slot 1 is not delete); what a
    maintenance read sees, per the first row of Table 1. *)
