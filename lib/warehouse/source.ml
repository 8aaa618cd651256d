module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value

type t = { schema : Schema.t; mutable rows : Tuple.t list }

let create schema = { schema; rows = [] }

let schema t = t.schema

let remove_one t row =
  let rec loop acc = function
    | [] -> invalid_arg "Source: delete/update of absent row"
    | r :: rest ->
      if Tuple.equal r row then List.rev_append acc rest else loop (r :: acc) rest
  in
  t.rows <- loop [] t.rows

let apply t changes =
  (* All or nothing: the row list is immutable, so a change that fails
     part-way through the batch restores the list from before the first. *)
  let before = t.rows in
  match
    List.iter
      (fun change ->
        match change with
        | Delta.Insert row -> t.rows <- row :: t.rows
        | Delta.Delete row -> remove_one t row
        | Delta.Update (old_row, new_row) ->
          remove_one t old_row;
          t.rows <- new_row :: t.rows)
      changes
  with
  | () -> ()
  | exception e ->
    t.rows <- before;
    raise e

let rows t = List.rev t.rows

let row_count t = List.length t.rows

let compute_view t view =
  (* Reuse the batch aggregation over the whole base as a fresh load. *)
  let deltas = Delta.net_group_deltas view (List.map (fun r -> Delta.Insert r) (rows t)) in
  let target = View_def.target_schema view in
  List.filter_map
    (fun { Delta.key; agg_delta; count_delta } ->
      if View_def.has_count view && count_delta <= 0 then None
      else
        let aggs =
          if View_def.has_count view then
            (* The last aggregate is the hidden row_count; its delta over a
               fresh load is the group's support. *)
            let rec replace_last = function
              | [] -> []
              | [ _ ] -> [ Value.Int count_delta ]
              | x :: rest -> x :: replace_last rest
            in
            replace_last agg_delta
          else agg_delta
        in
        Some (Tuple.make target (key @ aggs)))
    deltas
