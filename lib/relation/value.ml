type t = Int of int | Float of float | Str of string | Date of int | Bool of bool | Null

let is_null = function Null -> true | Int _ | Float _ | Str _ | Date _ | Bool _ -> false

let matches dt v =
  match (dt, v) with
  | _, Null -> true
  | Dtype.Int, Int _ -> true
  | Dtype.Float, Float _ -> true
  | Dtype.Str n, Str s -> String.length s <= n
  | Dtype.Date, Date _ -> true
  | Dtype.Bool, Bool _ -> true
  | (Dtype.Int | Dtype.Float | Dtype.Str _ | Dtype.Date | Dtype.Bool), _ -> false

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Date _ -> 4
  | Str _ -> 5

(* Specialized comparisons (not [Stdlib.compare]): the B+-tree and the
   batched key sorts sit on this, and the generic compare is several times
   slower than the primitive ones. *)
let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

let arith f_int f_float a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (f_int x y)
  | Float x, Float y -> Float (f_float x y)
  | Int x, Float y -> Float (f_float (float_of_int x) y)
  | Float x, Int y -> Float (f_float x (float_of_int y))
  | _ -> invalid_arg "Value: arithmetic on non-numeric value"

let add = arith ( + ) ( +. )
let sub = arith ( - ) ( -. )
let mul = arith ( * ) ( *. )
let div = arith ( / ) ( /. )

let neg = function
  | Null -> Null
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | _ -> invalid_arg "Value.neg: non-numeric value"

let to_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | Null -> 0.0
  | Str _ | Date _ | Bool _ -> invalid_arg "Value.to_float: non-numeric value"

let date_of_mdy m d y =
  let y = if y < 100 then 1900 + y else y in
  Date ((y * 10000) + (m * 100) + d)

let grouped_int_string n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3) + 1) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [to_string] sits on query hot paths (group keys, DISTINCT), so it must
   not go through the Format machinery. *)
let to_string = function
  | Int n -> grouped_int_string n
  | Float f -> Printf.sprintf "%.2f" f
  | Str s -> s
  | Date d ->
    let y = d / 10000 and m = d / 100 mod 100 and day = d mod 100 in
    Printf.sprintf "%02d/%02d/%02d" m day (y mod 100)
  | Bool b -> if b then "true" else "false"
  | Null -> "null"

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* Null sentinels per type: chosen outside the range workloads generate. *)
let int_null = Int32.min_int
let date_null = Int32.min_int

let mismatch dt v =
  invalid_arg
    (Printf.sprintf "Value.encode: %s does not match %s" (to_string v) (Dtype.to_string dt))

(* Writes every byte of the cell: a record is re-encoded over its old image
   in the page, so a short string's tail must be zeroed here, not assumed. *)
let write_cell dt v buf off =
  match (dt, v) with
  | Dtype.Int, Int n -> Bytes.set_int32_le buf off (Int32.of_int n)
  | Dtype.Int, Null -> Bytes.set_int32_le buf off int_null
  | Dtype.Float, Float f -> Bytes.set_int64_le buf off (Int64.bits_of_float f)
  | Dtype.Float, Null -> Bytes.set_int64_le buf off (Int64.bits_of_float nan)
  | Dtype.Str n, Str s ->
    let len = String.length s in
    Bytes.blit_string s 0 buf off len;
    Bytes.fill buf (off + len) (n - len) '\000'
  | Dtype.Str n, Null -> Bytes.fill buf off n '\xff'
  | Dtype.Date, Date d -> Bytes.set_int32_le buf off (Int32.of_int d)
  | Dtype.Date, Null -> Bytes.set_int32_le buf off date_null
  | Dtype.Bool, Bool b -> Bytes.set buf off (if b then '\001' else '\000')
  | Dtype.Bool, Null -> Bytes.set buf off '\002'
  | _ -> mismatch dt v

let encode_into dt v buf off =
  if not (matches dt v) then mismatch dt v;
  if off < 0 || off > Bytes.length buf - Dtype.width dt then
    invalid_arg "Value.encode_into: cell out of bounds";
  write_cell dt v buf off

let encode dt v =
  let buf = Bytes.make (Dtype.width dt) '\000' in
  encode_into dt v buf 0;
  buf

let decode dt buf off =
  match dt with
  | Dtype.Int ->
    let n = Bytes.get_int32_le buf off in
    if Int32.equal n int_null then Null else Int (Int32.to_int n)
  | Dtype.Float ->
    let f = Int64.float_of_bits (Bytes.get_int64_le buf off) in
    if Float.is_nan f then Null else Float f
  | Dtype.Str n ->
    if off < 0 || off + n > Bytes.length buf then
      invalid_arg "Value.decode: string cell out of bounds"
    else if n > 0 && Bytes.unsafe_get buf off = '\xff' then Null
    else begin
      (* Find the padding terminator in place: one allocation, not two,
         and one bounds check for the whole cell rather than per byte. *)
      let lim = off + n in
      let rec stop i = if i >= lim || Bytes.unsafe_get buf i = '\000' then i else stop (i + 1) in
      Str (Bytes.sub_string buf off (stop off - off))
    end
  | Dtype.Date ->
    let n = Bytes.get_int32_le buf off in
    if Int32.equal n date_null then Null else Date (Int32.to_int n)
  | Dtype.Bool -> (
    match Bytes.get buf off with '\000' -> Bool false | '\001' -> Bool true | _ -> Null)

(* [compare] has [Int n] equal to [Float (float_of_int n)], so numerics
   hash through their float image.  The image is hashed by its bits, which
   skips boxing it; NaNs are one class and -0.0 hashes like 0.0, matching
   [Float.compare]. *)
let[@inline] hash_float f =
  if Float.is_nan f then 0x7ff8
  else if f = 0.0 then 0
  else Hashtbl.hash (Int64.to_int (Int64.bits_of_float f))

let hash = function
  | Null -> 17
  | Int n -> hash_float (float_of_int n)
  | Float f -> hash_float f
  | Str s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (d + 7919)
  | Bool b -> if b then 3 else 5

module Intern = struct
  (* Open addressing over [Str] cells; [Null] marks an empty slot.  The
     table is keyed by content, so a cell decoded from a torn page image
     (an optimistic read that later fails validation) can only add an
     entry, never answer a lookup wrongly. *)
  type value = t

  type t = {
    mutable cells : value array;
    mutable count : int;
    ints : value array;  (** Direct-mapped by the low bits: the last [Int] seen. *)
    dates : value array;  (** Likewise for [Date]. *)
  }

  (* Past this many distinct strings a scan is not repeating itself; later
     misses decode into fresh strings instead of growing the table. *)
  let max_entries = 4096

  let recent = 256

  let create () =
    {
      cells = Array.make 64 Null;
      count = 0;
      ints = Array.make recent Null;
      dates = Array.make recent Null;
    }

  let hash_bytes buf off len =
    let h = ref 0 in
    for i = off to off + len - 1 do
      h := (!h * 31) + Char.code (Bytes.unsafe_get buf i)
    done;
    !h land max_int

  let rec same_from s buf off len i =
    i >= len
    || (String.unsafe_get s i = Bytes.unsafe_get buf (off + i) && same_from s buf off len (i + 1))

  let same s buf off len = String.length s = len && same_from s buf off len 0

  (* The slot holding these bytes, else the empty slot where they go. *)
  let rec probe cells mask buf off len i =
    match Array.unsafe_get cells i with
    | Str s when same s buf off len -> i
    | Null -> i
    | _ -> probe cells mask buf off len ((i + 1) land mask)

  let grow d =
    let cells = Array.make (2 * Array.length d.cells) Null in
    let mask = Array.length cells - 1 in
    Array.iter
      (function
        | Str s as v ->
          let b = Bytes.unsafe_of_string s and len = String.length s in
          cells.(probe cells mask b 0 len (hash_bytes b 0 len land mask)) <- v
        | _ -> ())
      d.cells;
    d.cells <- cells

  let intern d buf off len h =
    let mask = Array.length d.cells - 1 in
    let i = probe d.cells mask buf off len (h land mask) in
    match Array.unsafe_get d.cells i with
    | Str _ as v -> v
    | _ ->
      let v = Str (Bytes.sub_string buf off len) in
      if d.count < max_entries then begin
        d.cells.(i) <- v;
        d.count <- d.count + 1;
        if 2 * d.count > Array.length d.cells then grow d
      end;
      v

  (* Int and Date cells repeat too (days, small counts) but are cheap to
     rebuild, so they only get a one-entry-per-slot cache: a hit when the
     slot's last value is this one, else the new value takes the slot. *)
  let recent_cell cache dt n =
    let i = n land (recent - 1) in
    match (dt, Array.unsafe_get cache i) with
    | Dtype.Int, (Int m as v) | Dtype.Date, (Date m as v) when m = n -> v
    | _ ->
      let v = match dt with Dtype.Date -> Date n | _ -> Int n in
      Array.unsafe_set cache i v;
      v

  let decode d dt buf off =
    match dt with
    | Dtype.Str n ->
      if off < 0 || off + n > Bytes.length buf then
        invalid_arg "Value.decode: string cell out of bounds"
      else if n > 0 && Bytes.unsafe_get buf off = '\xff' then Null
      else begin
        (* One pass finds the padding terminator and hashes the payload,
           with [hash_bytes]'s formula. *)
        let lim = off + n in
        let i = ref off and h = ref 0 in
        while !i < lim && Bytes.unsafe_get buf !i <> '\000' do
          h := (!h * 31) + Char.code (Bytes.unsafe_get buf !i);
          incr i
        done;
        intern d buf off (!i - off) (!h land max_int)
      end
    | Dtype.Int | Dtype.Date ->
      (* Both types' NULL sentinel is [Int32.min_int]. *)
      let n = Bytes.get_int32_le buf off in
      if Int32.equal n int_null then Null
      else
        let cache = match dt with Dtype.Date -> d.dates | _ -> d.ints in
        recent_cell cache dt (Int32.to_int n)
    | Dtype.Float | Dtype.Bool -> decode dt buf off
end
