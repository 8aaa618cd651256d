type attribute = { name : string; dtype : Dtype.t; updatable : bool; key : bool }

type t = {
  attrs : attribute array;
  positions : (string, int) Hashtbl.t;
  dtypes : Dtype.t array;  (** [attrs.(i).dtype], cached for decode loops. *)
  cell_offsets : int array;  (** Byte offset of each attribute's cell. *)
  width : int;  (** Sum of the cell widths. *)
  key_indices : int list;  (** Key positions, ascending; shared by every caller. *)
}

let attr ?(updatable = false) ?(key = false) name dtype = { name; dtype; updatable; key }

let make attrs =
  if attrs = [] then invalid_arg "Schema.make: empty attribute list";
  let arr = Array.of_list attrs in
  let positions = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i a ->
      if Hashtbl.mem positions a.name then
        invalid_arg (Printf.sprintf "Schema.make: duplicate attribute %S" a.name);
      if a.key && a.updatable then
        invalid_arg (Printf.sprintf "Schema.make: key attribute %S cannot be updatable" a.name);
      Hashtbl.add positions a.name i)
    arr;
  let dtypes = Array.map (fun a -> a.dtype) arr in
  let cell_offsets = Array.make (Array.length arr) 0 in
  let off = ref 0 in
  Array.iteri
    (fun i dt ->
      cell_offsets.(i) <- !off;
      off := !off + Dtype.width dt)
    dtypes;
  let key_indices = List.filter (fun i -> arr.(i).key) (List.init (Array.length arr) Fun.id) in
  { attrs = arr; positions; dtypes; cell_offsets; width = !off; key_indices }

let attributes t = Array.to_list t.attrs

(* Online schema evolution appends; key columns would change tuple identity
   retroactively, so only non-key attributes may ride an extension. *)
let extend_with t a =
  if a.key then
    invalid_arg (Printf.sprintf "Schema.extend_with: %S: cannot append a key attribute" a.name);
  make (attributes t @ [ a ])

let arity t = Array.length t.attrs

let attribute t i = t.attrs.(i)

let dtypes t = t.dtypes

let cell_offsets t = t.cell_offsets

let index_of_opt t name = Hashtbl.find_opt t.positions name

let index_of t name =
  match index_of_opt t name with Some i -> i | None -> raise Not_found

let mem t name = Hashtbl.mem t.positions name

let names t = Array.to_list (Array.map (fun a -> a.name) t.attrs)

let width t = t.width

let indices_where pred t =
  let rec loop i acc =
    if i < 0 then acc else loop (i - 1) (if pred t.attrs.(i) then i :: acc else acc)
  in
  loop (Array.length t.attrs - 1) []

let key_indices t = t.key_indices

let updatable_indices = indices_where (fun a -> a.updatable)

let has_unique_key t = t.key_indices <> []

let pp_attribute ppf a =
  Format.fprintf ppf "%s : %a%s%s" a.name Dtype.pp a.dtype
    (if a.key then " [key]" else "")
    (if a.updatable then " [upd]" else "")

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_attribute ppf (attributes t)

let equal a b =
  arity a = arity b
  && List.for_all2
       (fun x y ->
         String.equal x.name y.name && Dtype.equal x.dtype y.dtype
         && x.updatable = y.updatable && x.key = y.key)
       (attributes a) (attributes b)
