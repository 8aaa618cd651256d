type token =
  | IDENT of string
  | KEYWORD of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | PARAM of string
  | SYMBOL of string
  | EOF

exception Lex_error of string * int

let keywords =
  [
    "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER";
    "ASC"; "DESC"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE";
    "AND"; "OR"; "NOT"; "AS"; "CASE"; "WHEN"; "THEN"; "ELSE"; "END"; "IS";
    "NULL"; "SUM"; "COUNT"; "MIN"; "MAX"; "AVG"; "DATE"; "TRUE"; "FALSE";
    "IN"; "BETWEEN"; "LIKE"; "LIMIT"; "OFFSET";
  ]

let keyword_set = List.fold_left (fun s k -> k :: s) [] keywords

let is_keyword s = List.mem (String.uppercase_ascii s) keyword_set

(* Character classes, one byte per char, so the scanners' loops test a
   class with one load. *)
let ident_start = 1

let ident_char = 2

let digit = 4

let space = 8

let classes =
  String.init 256 (fun i ->
      let c = Char.chr i in
      let start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
      let dig = c >= '0' && c <= '9' in
      Char.chr
        ((if start then ident_start lor ident_char else 0)
        lor (if dig then digit lor ident_char else 0)
        lor if c = ' ' || c = '\t' || c = '\n' || c = '\r' then space else 0))

let is_class k c = Char.code (String.unsafe_get classes (Char.code c)) land k <> 0

let is_ident_start c = is_class ident_start c

let is_digit c = is_class digit c

(* The scanners below are the lexer's character and literal rules, shared
   with {!Shape}: each takes the index a token starts at and returns the
   index just past it. *)

let scan_class k src i =
  let n = String.length src in
  let j = ref i in
  while !j < n && is_class k (String.unsafe_get src !j) do
    incr j
  done;
  !j

let skip_ws src i = scan_class space src i

let ident_end src i = scan_class ident_char src i

let digits_end src i = scan_class digit src i

let number_end src i =
  let j = digits_end src i in
  if j + 1 < String.length src && src.[j] = '.' && is_digit src.[j + 1] then
    digits_end src (j + 1)
  else j

let number_token src i j =
  let text = String.sub src i (j - i) in
  if digits_end src i < j then FLOAT (float_of_string text) else INT (int_of_string text)

let string_end src i =
  let n = String.length src in
  let rec go j =
    if j >= n then raise (Lex_error ("unterminated string literal", i))
    else if src.[j] <> '\'' then go (j + 1)
    else if j + 1 < n && src.[j + 1] = '\'' then go (j + 2)
    else j + 1
  in
  go (i + 1)

let string_body src i j =
  let body = String.sub src (i + 1) (j - i - 2) in
  if not (String.contains body '\'') then body
  else begin
    (* Inside a scanned literal every quote is the first of a [''] pair. *)
    let buf = Buffer.create (String.length body) in
    let k = ref 0 in
    while !k < String.length body do
      Buffer.add_char buf body.[!k];
      k := !k + if body.[!k] = '\'' then 2 else 1
    done;
    Buffer.contents buf
  end

let placeholder_name k = string_of_int k

let tokenize ?(placeholders = false) src =
  let n = String.length src in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let position = ref 0 in
  let rec lex i =
    let i = skip_ws src i in
    if i >= n then emit EOF
    else
      let c = src.[i] in
      if is_ident_start c then begin
        let j = ident_end src i in
        let word = String.sub src i (j - i) in
        if is_keyword word then emit (KEYWORD (String.uppercase_ascii word))
        else emit (IDENT word);
        lex j
      end
      else if is_digit c then begin
        let j = number_end src i in
        emit (number_token src i j);
        lex j
      end
      else if c = '\'' then begin
        let j = string_end src i in
        emit (STRING (string_body src i j));
        lex j
      end
      else if c = ':' then begin
        if i + 1 >= n || not (is_ident_start src.[i + 1]) then
          raise (Lex_error ("expected parameter name after ':'", i));
        let j = ident_end src (i + 1) in
        emit (PARAM (String.sub src (i + 1) (j - i - 1)));
        lex j
      end
      else if c = '?' && placeholders then begin
        incr position;
        emit (PARAM (placeholder_name !position));
        lex (i + 1)
      end
      else
        let two = if i + 1 < n then String.sub src i 2 else "" in
        match two with
        | "<=" | ">=" | "<>" | "!=" ->
          emit (SYMBOL (if two = "!=" then "<>" else two));
          lex (i + 2)
        | _ -> (
          match c with
          | '(' | ')' | ',' | '*' | '+' | '-' | '/' | '=' | '<' | '>' | '.' | ';' ->
            emit (SYMBOL (String.make 1 c));
            lex (i + 1)
          | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, i)))
  in
  lex 0;
  List.rev !tokens

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "IDENT(%s)" s
  | KEYWORD s -> Format.fprintf ppf "KW(%s)" s
  | INT n -> Format.fprintf ppf "INT(%d)" n
  | FLOAT f -> Format.fprintf ppf "FLOAT(%g)" f
  | STRING s -> Format.fprintf ppf "STR(%s)" s
  | PARAM s -> Format.fprintf ppf "PARAM(:%s)" s
  | SYMBOL s -> Format.fprintf ppf "SYM(%s)" s
  | EOF -> Format.pp_print_string ppf "EOF"
