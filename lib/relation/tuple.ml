type t = Value.t array

let check_value schema i v =
  if not (Value.matches (Array.unsafe_get (Schema.dtypes schema) i) v) then begin
    let a = Schema.attribute schema i in
    invalid_arg
      (Printf.sprintf "Tuple.make: value %s does not match attribute %s : %s" (Value.to_string v)
         a.Schema.name
         (Dtype.to_string a.Schema.dtype))
  end

let check schema values =
  if Array.length values <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Tuple.make: arity mismatch (got %d, schema has %d)"
         (Array.length values) (Schema.arity schema));
  for i = 0 to Array.length values - 1 do
    check_value schema i (Array.unsafe_get values i)
  done

let of_array schema values =
  let arr = Array.copy values in
  check schema arr;
  arr

let make schema values = of_array schema (Array.of_list values)

let unsafe_of_array values = values

let unsafe_init n f = Array.init n f

let arity = Array.length

let get t i = t.(i)

let get_by_name schema t name = t.(Schema.index_of schema name)

let set t i v =
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

let set_many t updates =
  let t' = Array.copy t in
  List.iter (fun (i, v) -> t'.(i) <- v) updates;
  t'

let values = Array.to_list

let project t positions = List.map (fun i -> t.(i)) positions

let key_of schema t = project t (Schema.key_indices schema)

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let hash t =
  let h = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    h := (!h * 31) + Value.hash t.(i)
  done;
  !h land max_int

let compare a b =
  let rec loop i =
    if i >= Array.length a && i >= Array.length b then 0
    else if i >= Array.length a then -1
    else if i >= Array.length b then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

(* Validate the whole tuple before the first byte lands: the target is
   usually a live page slot, and a rejected tuple must leave it as it was.
   Once the tuple and the record's bounds have passed, each cell is
   written unchecked. *)
let encode_into schema t buf off =
  check schema t;
  if off < 0 || off > Bytes.length buf - Schema.width schema then
    invalid_arg "Tuple.encode_into: record out of bounds";
  let dts = Schema.dtypes schema and offs = Schema.cell_offsets schema in
  for i = 0 to Array.length t - 1 do
    Value.write_cell (Array.unsafe_get dts i) (Array.unsafe_get t i) buf
      (off + Array.unsafe_get offs i)
  done

let encode schema t =
  let buf = Bytes.make (Schema.width schema) '\000' in
  encode_into schema t buf 0;
  buf

let decode_from schema buf start =
  let dts = Schema.dtypes schema and offs = Schema.cell_offsets schema in
  let n = Array.length dts in
  let arr = Array.make n Value.Null in
  for i = 0 to n - 1 do
    Array.unsafe_set arr i
      (Value.decode (Array.unsafe_get dts i) buf (start + Array.unsafe_get offs i))
  done;
  arr

let decode schema buf = decode_from schema buf 0

let pp schema ppf t =
  ignore schema;
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (values t)

let to_strings t = List.map Value.to_string (values t)
