(** Compiled query plans.

    [prepare] lowers a parsed SELECT into closures once — column references
    become array positions, named parameters become slots, constant
    subexpressions are folded — and hoists the access-path decision
    (unique-key probe, secondary-index scan, or full scan) out of the
    per-execution path.  [execute] then binds parameters and runs the
    closures.  Plans are the engine's one SELECT evaluator: the warehouse
    reader path, the wire server, the shell and the experiments all run
    through [prepare]/[execute], and the 2VNL reader caches plans per
    catalog generation.  A reference interpreter in this library gives the
    same results down to three-valued logic, lazy error reporting (a bad
    expression in a query yielding no rows never surfaces), and
    error-message text; the differential tests in [test/] hold plans to
    that contract.

    Compilation changes CPU cost only: a plan touches the same pages
    through the same access paths as the interpreter, so the paper's §6
    physical-I/O experiments are unaffected.  The one intentional
    deviation: a probe value that fails to evaluate at execution time
    (e.g. an unbound parameter) degrades that table to a full scan,
    where the interpreter may still have found a narrower index from the
    remaining bindings — results are identical because the full WHERE
    always runs as a residual filter. *)

exception Query_error of string

type result = {
  columns : string list;  (** Output column labels, in select-list order. *)
  rows : Vnl_relation.Value.t list list;
}

type t

val prepare : ?resolve:(string -> Table.t option) -> Database.t -> Vnl_sql.Ast.select -> t
(** Compile against the database's current catalog.  [resolve] overrides
    name resolution for names it returns [Some] for (a catalog generation's
    registry); unknown names fall through to the database.  Raises
    {!Query_error} on unknown tables or an empty FROM clause (the same
    errors the interpreter reports at query time). *)

val prepare_view :
  label:string ->
  ?columns:string list ->
  Vnl_relation.Schema.t ->
  Vnl_sql.Ast.select ->
  t
(** Compile a SELECT over a single materialized source — rows are supplied
    to {!execute_view} rather than read from a table.  [label] is the name
    column references are resolved against (the FROM clause is ignored);
    [columns] overrides the derived output labels, letting the 2VNL reader
    fast path reproduce the labels of the rewritten query it replaces. *)

val execute : ?params:(string * Vnl_relation.Value.t) list -> t -> result
(** Run a table plan.  Raises {!Eval.Eval_error} exactly where the
    interpreter would (unknown column forced by a row, unbound parameter,
    type errors). *)

val execute_view :
  ?params:(string * Vnl_relation.Value.t) list -> t -> Vnl_relation.Tuple.t list -> result
(** Run a view plan over the given source rows. *)

val valid : ?resolve:(string -> Table.t option) -> Database.t -> t -> bool
(** Whether the plan's access-path choices are still sound: every table it
    was compiled against is still the same physical table and has seen no
    index DDL since.  View plans are always valid. *)

val columns : t -> string list
(** Output labels, available without executing. *)

val full_scan_only : t -> bool
(** True when every FROM table is read by a full scan — the condition under
    which the 2VNL reader fast path can substitute an engine-level extract
    without changing row order or physical I/O. *)

val explain : t -> string
(** One line per FROM table describing the access path chosen at prepare
    time: [<table>: unique-key probe], [<table>: index scan via <index>]
    or [<table>: full scan]. *)

(** {2 Result helpers} *)

val compare_value_lists :
  Vnl_relation.Value.t list -> Vnl_relation.Value.t list -> int

val sort_rows : result -> result
(** Canonically sort the rows; handy for order-insensitive comparisons. *)

val result_equal : result -> result -> bool
(** Equality on columns and row multisets (order-insensitive). *)

val pp_result : Format.formatter -> result -> unit
(** Render as an aligned text table. *)
