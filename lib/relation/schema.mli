(** Relation schemas.

    An attribute carries the two flags the 2VNL algorithm cares about:
    whether it is {e updatable} (can be changed by a maintenance update —
    for summary tables only the aggregate results are, §3.1) and whether it
    belongs to the relation's {e unique key} (the group-by attributes of a
    summary table, §3.3). *)

type attribute = {
  name : string;
  dtype : Dtype.t;
  updatable : bool;  (** May be modified by a maintenance update operation. *)
  key : bool;  (** Part of the unique key, if the relation has one. *)
}

type t
(** An ordered list of uniquely-named attributes. *)

val attr : ?updatable:bool -> ?key:bool -> string -> Dtype.t -> attribute
(** Attribute constructor; flags default to [false]. *)

val make : attribute list -> t
(** Build a schema.  Raises [Invalid_argument] on duplicate names, an empty
    attribute list, or an attribute that is both [key] and [updatable]
    (keys are never updated in place; the paper models key changes as
    delete + insert). *)

val extend_with : t -> attribute -> t
(** [extend_with t a] is [t] with [a] appended — the shape of an
    [ALTER TABLE ... ADD COLUMN].  Existing positions are unchanged, so
    plans and key extraction compiled against [t] stay positionally valid
    against the extension.  Raises [Invalid_argument] if [a] is a key
    attribute (that would retroactively change tuple identity) or
    duplicates an existing name. *)

val arity : t -> int

val attribute : t -> int -> attribute
(** [attribute t i] is the [i]-th attribute (0-based). *)

val dtypes : t -> Dtype.t array
(** Attribute dtypes in schema order.  The array is the schema's own cache
    — callers must not mutate it. *)

val cell_offsets : t -> int array
(** Byte offset of each attribute's cell within an encoded record (prefix
    sums of the dtype widths).  Same ownership caveat as {!dtypes}. *)

val attributes : t -> attribute list

val index_of_opt : t -> string -> int option
val index_of : t -> string -> int
(** Raises [Not_found] for unknown names. *)

val mem : t -> string -> bool

val names : t -> string list

val width : t -> int
(** Total physical tuple width in bytes (sum of attribute widths), computed
    once at {!make}. *)

val key_indices : t -> int list
(** Positions of key attributes, in schema order; empty when the relation
    has no unique key.  The list is the schema's own, built once at
    {!make}: calling this allocates nothing. *)

val updatable_indices : t -> int list
(** Positions of updatable attributes, in schema order. *)

val has_unique_key : t -> bool

val pp : Format.formatter -> t -> unit
(** Render as [name : TYPE [key] [upd], ...]. *)

val equal : t -> t -> bool
