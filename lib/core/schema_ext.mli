(** Schema extension for 2VNL and nVNL (§3.1, §5).

    For a base relation with attributes A = {A1..Ab} of which U = {U1..Uk}
    are updatable, the extended relation under nVNL is

    {v tupleVN, operation, A1..Ab,
      pre_U1..pre_Uk,                       (version slot 1)
      tupleVN2, operation2, pre2_U1..pre2_Uk,   (slot 2)
      ...
      tupleVN{n-1}, operation{n-1}, pre{n-1}_U1..  (slot n-1) v}

    With n = 2 this is exactly Figure 3's layout: [tupleVN] (4 bytes),
    [operation] (1 byte), the base attributes, and one pre-update copy of
    each updatable attribute.  Key attributes of the base schema remain the
    unique key of the extended relation, which is what lets maintenance
    detect the Table 2 key conflicts, and why indexes on the group-by
    attributes survive unchanged (§4.3). *)

type t

val extend : ?n:int -> Vnl_relation.Schema.t -> t
(** [extend ~n base] with [n >= 2] (default 2).  Raises [Invalid_argument]
    if [base] already contains reserved names ([tupleVN], [operation],
    [pre_*]). *)

val base : t -> Vnl_relation.Schema.t

val extended : t -> Vnl_relation.Schema.t

val n : t -> int
(** Number of logically available versions. *)

val slots : t -> int
(** [n - 1]: version slots physically stored per tuple. *)

val base_arity : t -> int

val updatable_count : t -> int

val tuple_vn_index : t -> slot:int -> int
(** Position of [tupleVN{slot}] in the extended schema; slots are 1-based
    (slot 1 is the most recent). *)

val operation_index : t -> slot:int -> int

val pre_index : t -> slot:int -> int -> int
(** [pre_index t ~slot j] is the position of the pre-update copy (in
    [slot]) of base attribute [j]; raises [Invalid_argument] if base
    attribute [j] is not updatable. *)

val base_index : t -> int -> int
(** Position of base attribute [j] in the extended schema. *)

val updatable_base_indices : t -> int list
(** Base positions of the updatable attributes. *)

val updatable_array : t -> int array
(** {!updatable_base_indices} as a precomputed array (rank order).  The
    caller must not mutate it. *)

val is_updatable : t -> int -> bool
(** O(1): is base position [j] an updatable attribute?  [false] for
    out-of-range positions. *)

val pre_indices : t -> slot:int -> int array
(** Precomputed extended positions of [slot]'s pre-update copies, indexed
    by updatable rank — [pre_indices t ~slot].(r) = {!pre_index} of the
    rank-r updatable attribute, without the per-call rank lookup.  The
    caller must not mutate the array. *)

val tuple_vn : t -> slot:int -> Vnl_relation.Tuple.t -> int option
(** The slot's version number, [None] when the slot is unused. *)

val operation : t -> slot:int -> Vnl_relation.Tuple.t -> Op.t
(** Raises [Invalid_argument] on an unused slot. *)

val fresh_insert : t -> vn:int -> Vnl_relation.Tuple.t -> Vnl_relation.Tuple.t
(** Extended tuple for a newly inserted base tuple: slot 1 = (vn, insert,
    null pre-values), all other slots unused. *)

val current_tuple : t -> Vnl_relation.Tuple.t -> Vnl_relation.Tuple.t
(** The current version (the base-attribute values of the extended tuple)
    as a base tuple, without re-validation: the reader's per-tuple fast
    path and the refresh's classification. *)

val pre_update_tuple : t -> slot:int -> Vnl_relation.Tuple.t -> Vnl_relation.Tuple.t
(** The version a session older than [slot]'s VN must read: slot's
    pre-update copies for updatable attributes, current values elsewhere
    (non-updatable attributes cannot change). *)

type visibility =
  | Visible  (** Current version, readable by the session. *)
  | Invisible  (** Current version is a delete — not in the session's view. *)
  | Slow  (** Older version or unusual cell: use the full decode + classify. *)

val visibility : t -> session_vn:int -> bytes -> int -> visibility
(** [visibility t ~session_vn buf off] resolves the visibility of the
    extended record at [off] from slot 1's two fixed-offset cells, without
    allocating.  Returns [Slow] — never raises on a well-formed offset —
    whenever the answer needs the real classification logic. *)

val decode_visible :
  t -> Vnl_relation.Value.Intern.t -> bytes -> int -> Vnl_relation.Tuple.t
(** The base tuple of a record {!visibility} judged [Visible]: its base
    attributes decoded, strings through the scan's dictionary. *)

type raw_collectability =
  | Raw_collect  (** Expired delete: reclaimable at this horizon. *)
  | Raw_keep  (** Live, or a delete some session may still read. *)
  | Raw_unknown  (** Unusual cell: decide on the full decode. *)

val collectable_raw : t -> min_session_vn:int -> bytes -> int -> raw_collectability
(** [collectable_raw t ~min_session_vn buf off] decides GC collectability
    of the extended record at [off] straight from its bytes — slot 1's
    operation byte and version number sit at fixed offsets, so the
    overwhelmingly common live tuple costs one byte read instead of a
    full extended decode.  Never raises; [Raw_unknown] defers to the
    caller's decoded path (which owns the error messages). *)

(** {2 Schema evolution}

    An [ALTER TABLE ... ADD COLUMN] produces a new catalog generation whose
    extension appends the column (and, if updatable, its pre-update copies)
    after the old layout's cells.  A {!widening} is the precompiled
    per-position plan that carries a tuple — or a raw stored record — from
    the old generation's shape into the new one, filling added columns from
    their declared defaults. *)

val of_extended : n:int -> base_arity:int -> Vnl_relation.Schema.t -> t
(** Reconstruct the extension descriptor from a stored extended schema plus
    the persisted layout metadata ([n], base arity).  Raises
    [Invalid_argument] when the metadata does not reproduce the stored
    schema exactly (a corrupt or mismatched catalog generation). *)

type widening

val widening :
  from_:t -> to_:t -> defaults:(string * Vnl_relation.Value.t) list -> widening
(** Copy plan from generation [from_] to generation [to_].  Cells are
    matched by attribute name; an absent name takes its default from
    [defaults] (keyed by base attribute name) and anything else — e.g. the
    pre-update copies of an added updatable column — starts [Null]. *)

val widen : widening -> Vnl_relation.Tuple.t -> Vnl_relation.Tuple.t
(** Carry an old-generation {e extended} tuple into the new generation's
    extended shape, preserving version stamps and pre-update copies. *)

val decode_widened : widening -> bytes -> int -> Vnl_relation.Tuple.t
(** Decode a pre-evolution raw record through the new generation's schema:
    copied cells read at the old generation's byte offsets, added cells
    come from the defaults.  Equals [widen] of the old-generation decode. *)

val width_overhead : t -> int
(** Extra bytes per tuple versus the base schema. *)

val overhead_ratio : t -> float
(** [width_overhead / base width] — Figure 3 reports ~20% for
    DailySales. *)

val is_extended_attribute : t -> string -> bool
(** Does the name denote one of the added bookkeeping attributes? *)

val tuple_vn_name : t -> slot:int -> string
(** Attribute name of the slot's version number: [tupleVN] for slot 1,
    [tupleVN{i}] beyond. *)

val operation_name : t -> slot:int -> string

val pre_name : t -> slot:int -> string -> string
(** Name of the pre-update copy of updatable base attribute [name] in
    [slot]: [pre_name] for slot 1, [pre{slot}_name] beyond. *)
