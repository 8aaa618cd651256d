(** Recursive-descent parser for the SQL subset. *)

exception Parse_error of string
(** Raised with a human-readable message on malformed input. *)

val parse : string -> Ast.statement
(** Parse a single statement (an optional trailing [;] is accepted).
    Raises {!Parse_error} or {!Lexer.Lex_error}. *)

val parse_select : string -> Ast.select
(** Parse and require a SELECT. *)

val parse_shape : string -> Ast.select
(** Parse a statement shape ({!Shape.normalize}) as a SELECT: the k-th
    [?] is the parameter {!Lexer.placeholder_name}[ k]. *)

val parse_expr : string -> Ast.expr
(** Parse a standalone expression; used by tests. *)

val parse_date : string -> Vnl_relation.Value.t
(** Parse a date literal body in [mm/dd/yy] or [yyyy-mm-dd] form. *)
