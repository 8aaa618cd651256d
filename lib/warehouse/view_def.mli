(** Summary-table (materialized view) definitions.

    The warehouse relations of §2 are summary tables: select-from-where-
    group-by aggregate views over base data at the sources.  A definition
    names the source schema, the group-by attributes (which become the
    warehouse relation's unique key, never updated — the property §3.1's
    storage argument and §4.3's indexing argument rest on), and the
    aggregate columns (the only updatable attributes). *)

type agg =
  | Sum of string  (** SUM of a numeric source attribute. *)
  | Count  (** COUNT of contributing source rows. *)

type t

val make :
  name:string ->
  source:Vnl_relation.Schema.t ->
  group_by:string list ->
  aggregates:(string * agg) list ->
  ?with_count:bool ->
  unit ->
  t
(** Define a view.  [with_count] (default true) appends a hidden
    [row_count] aggregate so deletions can be maintained incrementally (a
    group vanishes when its support drops to zero); the paper's DailySales
    example omits it, which is fine for insert/update-only workloads.
    Raises [Invalid_argument] on unknown attributes, non-numeric SUM
    targets, or an empty group-by list. *)

val name : t -> string

val source : t -> Vnl_relation.Schema.t

val group_by : t -> string list

val aggregates : t -> (string * agg) list
(** Including the hidden [row_count] when present. *)

val has_count : t -> bool

val target_schema : t -> Vnl_relation.Schema.t
(** The warehouse relation: group-by attributes (key) then aggregate
    columns (updatable). *)

val group_key : t -> Vnl_relation.Tuple.t -> Vnl_relation.Value.t list
(** Key values of the group a source row belongs to. *)

val group_positions : t -> int list
(** Source positions of the group-by attributes, in [group_by] order:
    [group_key t row] is the row's values at these positions. *)

val sum_positions : t -> int option list
(** Where each aggregate's per-row contribution comes from, in
    [aggregates] order: the source position a SUM adds, [None] for COUNT
    (which adds 1). *)

val zero_contribution : t -> Vnl_relation.Value.t list
(** Identity element per aggregate (0). *)
