(* Length-prefixed binary frames; see the .mli for the protocol shape.

   Encoding writes into a Buffer and prefixes the 4-byte length last;
   decoding is incremental over a compacting byte buffer.  Payload parsing
   is bounds-checked everywhere and reports malformation as a value, not
   an exception — the fuzz suite feeds arbitrary bytes through [Decoder]
   and the connection handler must only ever see [`Corrupt]. *)

module Value = Vnl_relation.Value

let max_frame = 1 lsl 20

type error_code =
  | Bad_frame
  | No_session
  | Session_expired
  | Query_failed
  | Unknown_cursor
  | Server_busy
  | Too_many_cursors

let error_code_to_int = function
  | Bad_frame -> 1
  | No_session -> 2
  | Session_expired -> 3
  | Query_failed -> 4
  | Unknown_cursor -> 5
  | Server_busy -> 6
  | Too_many_cursors -> 7

let error_code_of_int = function
  | 1 -> Some Bad_frame
  | 2 -> Some No_session
  | 3 -> Some Session_expired
  | 4 -> Some Query_failed
  | 5 -> Some Unknown_cursor
  | 6 -> Some Server_busy
  | 7 -> Some Too_many_cursors
  | _ -> None

type request =
  | Hello of string
  | Query of string
  | Fetch of { cursor : int; max_rows : int }
  | Close_cursor of int
  | Bye

type response =
  | Hello_ok of { session_id : int; session_vn : int; catalog_gen : int }
  | Result of { cursor : int; columns : string list; total_rows : int }
  | Rows of { cursor : int; rows : Value.t list list; last : bool }
  | Ok_
  | Error_ of { code : error_code; message : string }
  | Expired of { session_vn : int; current_vn : int }

(* ---------- encoding ---------- *)

let add_u8 b v = Buffer.add_uint8 b (v land 0xff)

let add_u16 b v =
  if v < 0 || v > 0xffff then invalid_arg "Wire: u16 out of range";
  Buffer.add_uint16_be b v

let add_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Wire: u32 out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let add_i64 b v = Buffer.add_int64_be b (Int64.of_int v)

let add_str16 b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_str32 b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_value b = function
  | Value.Null -> add_u8 b 0
  | Value.Int i ->
    add_u8 b 1;
    add_i64 b i
  | Value.Float f ->
    add_u8 b 2;
    Buffer.add_int64_be b (Int64.bits_of_float f)
  | Value.Str s ->
    add_u8 b 3;
    add_str16 b s
  | Value.Date d ->
    add_u8 b 4;
    add_i64 b d
  | Value.Bool v ->
    add_u8 b 5;
    add_u8 b (if v then 1 else 0)

let max_str16 = 0xffff

(* Encoded sizes, used by the connection layer to pack [Rows] frames
   under [max_frame] *before* encoding — [encode_response] refuses an
   oversized payload, so whoever builds a chunk must budget bytes, not
   just rows. *)
let value_size = function
  | Value.Null -> 1
  | Value.Int _ | Value.Float _ | Value.Date _ -> 9
  | Value.Str s -> 3 + String.length s
  | Value.Bool _ -> 2

let row_size row = 2 + List.fold_left (fun acc v -> acc + value_size v) 0 row

let rows_overhead = 8

let value_encodable = function
  | Value.Str s -> String.length s <= max_str16
  | Value.Null | Value.Int _ | Value.Float _ | Value.Date _ | Value.Bool _ -> true

let row_encodable row =
  List.length row <= max_str16
  && List.for_all value_encodable row
  && row_size row <= max_frame - rows_overhead

let frame payload =
  let n = Buffer.length payload in
  if n = 0 || n > max_frame then invalid_arg "Wire: payload size out of range";
  let out = Bytes.create (4 + n) in
  Bytes.set_int32_be out 0 (Int32.of_int n);
  Buffer.blit payload 0 out 4 n;
  out

let encode_request req =
  let b = Buffer.create 64 in
  (match req with
  | Hello name ->
    add_u8 b 0x01;
    add_str16 b name
  | Query sql ->
    add_u8 b 0x02;
    add_str32 b sql
  | Fetch { cursor; max_rows } ->
    add_u8 b 0x03;
    add_u32 b cursor;
    add_u16 b max_rows
  | Close_cursor cursor ->
    add_u8 b 0x04;
    add_u32 b cursor
  | Bye -> add_u8 b 0x05);
  frame b

let encode_response resp =
  let b = Buffer.create 256 in
  (match resp with
  | Hello_ok { session_id; session_vn; catalog_gen } ->
    add_u8 b 0x81;
    add_u32 b session_id;
    add_u32 b session_vn;
    add_u32 b catalog_gen
  | Result { cursor; columns; total_rows } ->
    add_u8 b 0x82;
    add_u32 b cursor;
    add_u16 b (List.length columns);
    List.iter (add_str16 b) columns;
    add_u32 b total_rows
  | Rows { cursor; rows; last } ->
    add_u8 b 0x83;
    add_u32 b cursor;
    add_u16 b (List.length rows);
    add_u8 b (if last then 1 else 0);
    List.iter
      (fun row ->
        add_u16 b (List.length row);
        List.iter (add_value b) row)
      rows
  | Ok_ -> add_u8 b 0x84
  | Error_ { code; message } ->
    add_u8 b 0x85;
    add_u16 b (error_code_to_int code);
    add_str16 b message
  | Expired { session_vn; current_vn } ->
    add_u8 b 0x86;
    add_u32 b session_vn;
    add_u32 b current_vn);
  frame b

(* ---------- payload parsing ---------- *)

(* A bounds-checked reader over one payload.  [Malformed] never escapes
   this file: [parse_with] catches it and returns [Error]. *)
exception Malformed of string

type reader = { buf : bytes; mutable pos : int; stop : int }

let need r n ctx =
  if r.stop - r.pos < n then raise (Malformed (ctx ^ ": truncated payload"))

let u8 r ctx =
  need r 1 ctx;
  let v = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let u16 r ctx =
  need r 2 ctx;
  let v = Bytes.get_uint16_be r.buf r.pos in
  r.pos <- r.pos + 2;
  v

let u32 r ctx =
  need r 4 ctx;
  let v = Int32.to_int (Bytes.get_int32_be r.buf r.pos) land 0xffff_ffff in
  r.pos <- r.pos + 4;
  v

let i64 r ctx =
  need r 8 ctx;
  let v = Int64.to_int (Bytes.get_int64_be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let str_len r len ctx =
  need r len ctx;
  let s = Bytes.sub_string r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let str16 r ctx = str_len r (u16 r ctx) ctx

let str32 r ctx = str_len r (u32 r ctx) ctx

let value r =
  match u8 r "value" with
  | 0 -> Value.Null
  | 1 -> Value.Int (i64 r "int")
  | 2 ->
    need r 8 "float";
    let v = Int64.float_of_bits (Bytes.get_int64_be r.buf r.pos) in
    r.pos <- r.pos + 8;
    Value.Float v
  | 3 -> Value.Str (str16 r "str")
  | 4 -> Value.Date (i64 r "date")
  | 5 -> Value.Bool (u8 r "bool" <> 0)
  | tag -> raise (Malformed (Printf.sprintf "value: unknown tag %d" tag))

let finish r v =
  if r.pos <> r.stop then raise (Malformed "trailing bytes after payload");
  v

let parse_request r =
  match u8 r "opcode" with
  | 0x01 -> finish r (Hello (str16 r "hello"))
  | 0x02 -> finish r (Query (str32 r "query"))
  | 0x03 ->
    let cursor = u32 r "fetch" in
    let max_rows = u16 r "fetch" in
    finish r (Fetch { cursor; max_rows })
  | 0x04 -> finish r (Close_cursor (u32 r "close-cursor"))
  | 0x05 -> finish r Bye
  | op -> raise (Malformed (Printf.sprintf "unknown request opcode 0x%02x" op))

let parse_response r =
  match u8 r "opcode" with
  | 0x81 ->
    let session_id = u32 r "hello-ok" in
    let session_vn = u32 r "hello-ok" in
    let catalog_gen = u32 r "hello-ok" in
    finish r (Hello_ok { session_id; session_vn; catalog_gen })
  | 0x82 ->
    let cursor = u32 r "result" in
    let ncols = u16 r "result" in
    let columns = List.init ncols (fun _ -> str16 r "result") in
    let total_rows = u32 r "result" in
    finish r (Result { cursor; columns; total_rows })
  | 0x83 ->
    let cursor = u32 r "rows" in
    let nrows = u16 r "rows" in
    let last = u8 r "rows" <> 0 in
    let rows =
      List.init nrows (fun _ ->
          let ncols = u16 r "rows" in
          List.init ncols (fun _ -> value r))
    in
    finish r (Rows { cursor; rows; last })
  | 0x84 -> finish r Ok_
  | 0x85 ->
    let code_int = u16 r "error" in
    let message = str16 r "error" in
    let code =
      match error_code_of_int code_int with Some c -> c | None -> Bad_frame
    in
    finish r (Error_ { code; message })
  | 0x86 ->
    let session_vn = u32 r "expired" in
    let current_vn = u32 r "expired" in
    finish r (Expired { session_vn; current_vn })
  | op -> raise (Malformed (Printf.sprintf "unknown response opcode 0x%02x" op))

let parse_with parse buf pos stop =
  match parse { buf; pos; stop } with
  | v -> Ok v
  | exception Malformed msg -> Error msg

(* ---------- incremental decoder ---------- *)

module Decoder = struct
  type 'a t = {
    parse : bytes -> int -> int -> ('a, string) result;
    mutable buf : bytes;
    mutable rpos : int;
    mutable wpos : int;
    mutable corrupt : string option;
  }

  let make parse = { parse; buf = Bytes.create 4096; rpos = 0; wpos = 0; corrupt = None }

  let request () = make (parse_with parse_request)

  let response () = make (parse_with parse_response)

  let buffered d = d.wpos - d.rpos

  let compact_and_grow d extra =
    let used = buffered d in
    if d.rpos > 0 then begin
      Bytes.blit d.buf d.rpos d.buf 0 used;
      d.rpos <- 0;
      d.wpos <- used
    end;
    if Bytes.length d.buf - d.wpos < extra then begin
      let cap = ref (Bytes.length d.buf * 2) in
      while !cap < used + extra do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit d.buf 0 nb 0 used;
      d.buf <- nb
    end

  let feed d src off len =
    if off < 0 || len < 0 || off + len > Bytes.length src then
      invalid_arg "Wire.Decoder.feed: invalid range";
    (* A corrupt decoder swallows input: the connection is closing anyway,
       and retaining bytes would let a hostile peer grow the buffer. *)
    if d.corrupt = None then begin
      if Bytes.length d.buf - d.wpos < len then compact_and_grow d len;
      Bytes.blit src off d.buf d.wpos len;
      d.wpos <- d.wpos + len
    end

  let next d =
    match d.corrupt with
    | Some msg -> `Corrupt msg
    | None ->
      if buffered d < 4 then `Await
      else begin
        let len = Int32.to_int (Bytes.get_int32_be d.buf d.rpos) land 0xffff_ffff in
        if len = 0 || len > max_frame then begin
          let msg = Printf.sprintf "frame length %d out of range" len in
          d.corrupt <- Some msg;
          `Corrupt msg
        end
        else if buffered d < 4 + len then `Await
        else begin
          let pos = d.rpos + 4 in
          let stop = pos + len in
          match d.parse d.buf pos stop with
          | Ok msg ->
            d.rpos <- stop;
            if d.rpos = d.wpos then begin
              d.rpos <- 0;
              d.wpos <- 0
            end;
            `Msg msg
          | Error msg ->
            d.corrupt <- Some msg;
            `Corrupt msg
        end
      end
end
