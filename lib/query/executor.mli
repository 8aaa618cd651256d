(** The reference interpreter for SELECT.

    A straightforward evaluator: FROM (cross product over the named tables),
    WHERE, GROUP BY with aggregates, HAVING, projection, DISTINCT, ORDER BY.
    It picks each table's access path exactly as {!Plan.prepare} does (a
    unique-key probe when the whole key is bound, the longest covered
    secondary index otherwise, else a full scan) and reads through the
    buffer pool, so it touches the same pages as a compiled plan.

    Nothing in the engine calls it: {!Plan} is the one evaluator.  It stays
    as the oracle the differential tests hold {!Plan} to, and as the
    [interpreted] baseline of the plan microbenchmarks. *)

exception Query_error of string
(** Alias of {!Plan.Query_error}: interpreter and compiled plans raise the
    same exception. *)

type result = Plan.result = {
  columns : string list;  (** Output column labels, in select-list order. *)
  rows : Vnl_relation.Value.t list list;
}

val query :
  Database.t ->
  ?params:(string * Vnl_relation.Value.t) list ->
  Vnl_sql.Ast.select ->
  result
(** Execute a SELECT.  Raises {!Query_error} (or {!Eval.Eval_error}) on
    unknown tables/columns or malformed grouping. *)
