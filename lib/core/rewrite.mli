(** Query rewrite: implementing 2VNL on top of the unmodified engine (§4).

    {b Readers} (§4.1, Example 4.1): in a SELECT over an extended relation,
    every reference to an updatable attribute [a] becomes

    {v CASE WHEN :sessionVN >= tupleVN THEN a ELSE pre_a END v}

    and the WHERE clause gains the visibility predicate

    {v (:sessionVN >= tupleVN AND operation <> 'd')
   OR (:sessionVN < tupleVN AND operation <> 'i') v}

    (operations are stored as their 1-byte codes).  The reader supplies
    [:sessionVN] as a query parameter.  The rewrite also covers nVNL for
    any n — a generalization the paper describes as straightforward but
    does not spell out (§5): the CASE gains one arm per version slot and
    the visibility predicate one disjunct per slot.

    {b Maintenance} (§4.2, Examples 4.2-4.4): INSERT/UPDATE/DELETE
    statements written against the {e base} schema are executed with the
    cursor approach — matching tuples are located first, then each is
    revisited and the appropriate decision-table action applied. *)

exception Unsupported of string

val reader_select :
  lookup:(string -> Schema_ext.t option) -> Vnl_sql.Ast.select -> Vnl_sql.Ast.select
(** Rewrite a SELECT; tables for which [lookup] returns [None] pass
    through untouched. *)

val reader_sql : lookup:(string -> Schema_ext.t option) -> string -> string
(** Parse, rewrite, and print — the demonstration path for Example 4.1. *)

val reader_fast_path :
  lookup:(string -> Schema_ext.t option) -> Vnl_sql.Ast.select ->
  (string * string) option
(** Recognize the §4.1 pattern a reader can answer via engine-level
    extraction instead of the SQL rewrite: a single registered FROM table
    with every column reference resolving in its base schema.  Returns
    [(table, label)] — the registered table name and the label its columns
    are qualified by — or [None] when the query must take the rewrite
    path.  Equivalence holds because {!Reader.extract} computes per tuple
    exactly what the substituted CASE expressions and visibility predicate
    select. *)

val visibility_predicate :
  qualifier:string option -> Schema_ext.t -> Vnl_sql.Ast.expr
(** The WHERE conjunct above, with columns optionally qualified. *)

val case_for_attribute :
  qualifier:string option -> Schema_ext.t -> string -> Vnl_sql.Ast.expr
(** The CASE expression replacing updatable attribute [name]. *)

val session_valid : Vnl_query.Database.t -> session_vn:int -> bool
(** The global expiry check of §4.1, executed as a query against the
    Version relation:
    [sessionVN = currentVN OR (sessionVN = currentVN - 1 AND NOT
    maintenanceActive)]. *)

val maintenance_sql :
  ?stats:Maintenance.stats ->
  ?on_over_delete:(Vnl_storage.Heap_file.rid -> unit) ->
  ?was_insert_over_delete:(Vnl_storage.Heap_file.rid -> bool) ->
  Vnl_query.Database.t ->
  lookup:(string -> Schema_ext.t option) ->
  vn:int ->
  string ->
  int
(** Parse and execute a base-schema DML statement under maintenance
    version [vn]; returns the number of logical tuple operations applied.
    UPDATE may only assign updatable attributes; assignments and WHERE
    predicates see the current (latest) version, and logically deleted
    tuples are invisible.  Raises {!Unsupported} for SELECT or unregistered
    tables. *)
