(** Hand-written SQL lexer. *)

type token =
  | IDENT of string  (** Identifier, original case preserved. *)
  | KEYWORD of string  (** Reserved word, upper-cased. *)
  | INT of int
  | FLOAT of float
  | STRING of string  (** Single-quoted, with [''] escaping. *)
  | PARAM of string  (** [:name], or a shape's placeholder. *)
  | SYMBOL of string  (** Punctuation and operators, e.g. ["<="], [","]. *)
  | EOF

exception Lex_error of string * int
(** Message and byte position. *)

val tokenize : ?placeholders:bool -> string -> token list
(** Lex an entire statement; always ends with [EOF].  With [placeholders]
    (default [false]) the k-th [?] lexes as [PARAM (placeholder_name k)];
    otherwise [?] is an unexpected character.
    Raises {!Lex_error} on malformed input, and [Failure] on an integer
    literal that does not fit an [int]. *)

val placeholder_name : int -> string
(** The parameter name of the k-th placeholder (1-based): a decimal
    number, which no [:name] in statement text can spell. *)

val keywords : string list
(** The reserved words recognized as [KEYWORD]. *)

val pp_token : Format.formatter -> token -> unit

(** {2 Scanners}

    The lexer's character and literal rules, for scans that walk the text
    without building tokens ({!Shape}).  Each takes the byte index a token
    starts at and returns the index just past it. *)

val is_ident_start : char -> bool

val skip_ws : string -> int -> int

val ident_end : string -> int -> int

val number_end : string -> int -> int
(** A number starting at a digit: digits, then an optional [.digits]. *)

val number_token : string -> int -> int -> token
(** [INT] or [FLOAT] of the number scanned over [\[i, j)].  Raises
    [Failure] as {!tokenize} does. *)

val string_end : string -> int -> int
(** A string literal opening with the quote at [i].  Raises {!Lex_error}
    when it is unterminated. *)

val string_body : string -> int -> int -> string
(** The value of the string literal scanned over [\[i, j)], [''] unescaped. *)
