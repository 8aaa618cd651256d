(** Statement shapes: a SELECT text with its WHERE-clause literals taken
    out, so statements differing only in those literals share one key
    (and one cached plan).

    The scan follows the lexer's character and literal rules.  Inside the
    WHERE clause each [INT], [FLOAT], ['...'] string and [DATE '...']
    literal becomes a [?] placeholder; everything else stays as written:
    select items, GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET, LIKE patterns,
    and [NULL]/[TRUE]/[FALSE].  Those clauses are kept because in a grouped
    context a literal and a bound parameter differ (an empty group's
    representative row binds no parameters).  {!Parser.parse_shape}
    parses the key, reading the k-th placeholder as the parameter
    {!Lexer.placeholder_name}[ k], which no [:name] in statement text can
    spell. *)

val normalize : string -> (string * (string * Vnl_relation.Value.t) list) option
(** [Some (key, literals)]: the shape key and the placeholders' bindings in
    order, each literal's value typed as the parser types it ([Int],
    [Float], [Str] with [''] unescaped, [Date] by {!Parser.parse_date}).  A
    text with no WHERE literal is its own key.  [None] when the text holds
    a literal the lexer or parser rejects (an unterminated string, an
    integer overflow, a malformed date in the WHERE clause) or a [?]: such
    a text is parsed as it stands, to raise its own error. *)
