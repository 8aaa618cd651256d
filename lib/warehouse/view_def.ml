module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Dtype = Vnl_relation.Dtype

type agg = Sum of string | Count

type t = {
  name : string;
  source : Schema.t;
  group_by : string list;
  aggregates : (string * agg) list;  (** Includes hidden row_count when enabled. *)
  has_count : bool;
  group_positions : int list;
  sum_positions : int option list;  (** Per aggregate: source position, None for Count. *)
}

let count_column = "row_count"

let make ~name ~source ~group_by ~aggregates ?(with_count = true) () =
  if group_by = [] then invalid_arg "View_def.make: empty group-by";
  let position attr =
    match Schema.index_of_opt source attr with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "View_def.make: unknown source attribute %S" attr)
  in
  let group_positions = List.map position group_by in
  List.iter
    (fun (out, agg) ->
      if String.equal out count_column && with_count then
        invalid_arg "View_def.make: row_count is reserved";
      match agg with
      | Count -> ()
      | Sum attr -> (
        match (Schema.attribute source (position attr)).Schema.dtype with
        | Dtype.Int | Dtype.Float -> ()
        | Dtype.Str _ | Dtype.Date | Dtype.Bool ->
          invalid_arg (Printf.sprintf "View_def.make: SUM over non-numeric %S" attr)))
    aggregates;
  let aggregates =
    if with_count then aggregates @ [ (count_column, Count) ] else aggregates
  in
  let sum_positions =
    List.map (function _, Sum attr -> Some (position attr) | _, Count -> None) aggregates
  in
  { name; source; group_by; aggregates; has_count = with_count; group_positions; sum_positions }

let name t = t.name

let source t = t.source

let group_by t = t.group_by

let aggregates t = t.aggregates

let has_count t = t.has_count

let target_schema t =
  let key_attrs =
    List.map
      (fun pos ->
        let a = Schema.attribute t.source pos in
        Schema.attr ~key:true a.Schema.name a.Schema.dtype)
      t.group_positions
  in
  let agg_attrs =
    List.map2
      (fun (out, _) pos ->
        let dtype =
          match pos with
          | None -> Dtype.Int
          | Some p -> (Schema.attribute t.source p).Schema.dtype
        in
        Schema.attr ~updatable:true out dtype)
      t.aggregates t.sum_positions
  in
  Schema.make (key_attrs @ agg_attrs)

(* A top-level recursion, not [List.map] with a closure: this runs once
   per source row of every refresh. *)
let rec values_at row = function [] -> [] | pos :: rest -> Tuple.get row pos :: values_at row rest

let group_key t row = values_at row t.group_positions

let group_positions t = t.group_positions

let sum_positions t = t.sum_positions

let zero_contribution t =
  List.map
    (fun pos ->
      match pos with
      | None -> Value.Int 0
      | Some p -> (
        match (Schema.attribute t.source p).Schema.dtype with
        | Dtype.Float -> Value.Float 0.0
        | _ -> Value.Int 0))
    t.sum_positions
