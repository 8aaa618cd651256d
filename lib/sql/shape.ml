module Value = Vnl_relation.Value

exception Unshapeable

(* Placeholder names for the first literals, formatted once so binding a
   statement's literals allocates no strings. *)
let names = Array.init 16 (fun i -> Lexer.placeholder_name (i + 1))

let name k = if k <= Array.length names then names.(k - 1) else Lexer.placeholder_name k

(* Whether [src.[i..j)] spells the upper-case keyword [kw], in any case. *)
let is_word src i j kw =
  j - i = String.length kw
  &&
  let rec same k =
    k = String.length kw || (Char.uppercase_ascii src.[i + k] = kw.[k] && same (k + 1))
  in
  same 0

(* The clause keywords the scan tracks, by their length. *)
type word = Where | Ends_where | Like | Date | Other

let word src i j =
  match j - i with
  | 4 -> if is_word src i j "LIKE" then Like else if is_word src i j "DATE" then Date else Other
  | 5 ->
    if is_word src i j "WHERE" then Where
    else if is_word src i j "GROUP" || is_word src i j "ORDER" || is_word src i j "LIMIT" then
      Ends_where
    else Other
  | 6 -> if is_word src i j "HAVING" then Ends_where else Other
  | _ -> Other

type state = {
  src : string;
  mutable out : Bytes.t;  (** The key, from the first literal on. *)
  mutable len : int;  (** Bytes of [out] written. *)
  mutable copied : int;  (** [src] up to here is in [out]. *)
  mutable count : int;
  mutable literals : (string * Value.t) list;  (** Newest first. *)
}

let replace st i j v =
  if st.count = 0 then st.out <- Bytes.create (String.length st.src);
  Bytes.blit_string st.src st.copied st.out st.len (i - st.copied);
  st.len <- st.len + (i - st.copied);
  Bytes.unsafe_set st.out st.len '?';
  st.len <- st.len + 1;
  st.copied <- j;
  st.count <- st.count + 1;
  st.literals <- (name st.count, v) :: st.literals

let rec scan st i ~where ~like =
  let src = st.src in
  let i = Lexer.skip_ws src i in
  if i < String.length src then begin
    let c = String.unsafe_get src i in
    if Lexer.is_ident_start c then begin
      let j = Lexer.ident_end src i in
      match word src i j with
      | Where -> scan st j ~where:true ~like:false
      | Ends_where -> scan st j ~where:false ~like:false
      | Like -> scan st j ~where ~like:true
      | Date when where ->
        let quote = Lexer.skip_ws src j in
        if quote < String.length src && src.[quote] = '\'' then begin
          let e = Lexer.string_end src quote in
          replace st i e (Parser.parse_date (Lexer.string_body src quote e));
          scan st e ~where ~like:false
        end
        else scan st j ~where ~like:false
      | Date | Other -> scan st j ~where ~like:false
    end
    else
      match c with
      | '0' .. '9' ->
        let j = Lexer.number_end src i in
        (if where then
           match Lexer.number_token src i j with
           | Lexer.INT v -> replace st i j (Value.Int v)
           | Lexer.FLOAT f -> replace st i j (Value.Float f)
           | _ -> assert false);
        scan st j ~where ~like:false
      | '\'' ->
        let j = Lexer.string_end src i in
        if where && not like then replace st i j (Value.Str (Lexer.string_body src i j));
        scan st j ~where ~like:false
      | ':' when i + 1 < String.length src && Lexer.is_ident_start src.[i + 1] ->
        scan st (Lexer.ident_end src (i + 1)) ~where ~like:false
      | '?' -> raise Unshapeable
      | _ -> scan st (i + 1) ~where ~like:false
  end

let normalize src =
  let st = { src; out = Bytes.empty; len = 0; copied = 0; count = 0; literals = [] } in
  match scan st 0 ~where:false ~like:false with
  | exception (Unshapeable | Lexer.Lex_error _ | Parser.Parse_error _ | Failure _) -> None
  | () when st.count = 0 -> Some (src, [])
  | () ->
    let tail = String.length src - st.copied in
    Bytes.blit_string src st.copied st.out st.len tail;
    Some (Bytes.sub_string st.out 0 (st.len + tail), List.rev st.literals)
