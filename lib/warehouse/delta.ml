module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value

type change = Insert of Tuple.t | Delete of Tuple.t | Update of Tuple.t * Tuple.t

type group_delta = {
  key : Value.t list;
  agg_delta : Value.t list;
  count_delta : int;
}

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal a b =
    let rec loop xs ys =
      match (xs, ys) with
      | [], [] -> true
      | x :: xs, y :: ys -> Value.equal x y && loop xs ys
      | _ -> false
    in
    loop a b

  let hash (k : t) = Hashtbl.hash k
end)

(* One mutable accumulator per group, updated in place: netting a
   warehouse-sized batch is the first pass of every refresh, and a
   persistent map would rebuild a tree path (and allocate its spine) per
   source change. *)
type acc = { sums : Value.t array; mags : float array; mutable count : int }

(* Relative tolerance for float cancellation residues.  A group whose rows
   net to nothing still accumulates rounding error proportional to the
   magnitudes summed ((0.1 +. 0.2) -. 0.3 <> 0.), so "zero" for a float
   sum is judged against the running sum of |contribution|, not
   absolutely. *)
let residue_eps = 1e-12

let net_group_deltas view changes =
  (* Sized from the batch: a change touches at most two groups and the
     table doubles only past two entries per bucket, so it never resizes.
     A small batch's table then stays under the minor heap's 256-word
     limit; a fixed 1024 buckets would make every refresh, however small,
     start with a major-heap allocation. *)
  let acc = Key_tbl.create (List.length changes) and order = ref [] in
  let add_row sign row =
    let key = View_def.group_key view row in
    let contrib = View_def.contribution view row in
    let entry =
      match Key_tbl.find_opt acc key with
      | Some entry -> entry
      | None ->
        let zeros = Array.of_list (View_def.zero_contribution view) in
        let entry = { sums = zeros; mags = Array.make (Array.length zeros) 0.; count = 0 } in
        Key_tbl.add acc key entry;
        order := key :: !order;
        entry
    in
    let op = if sign > 0 then Value.add else Value.sub in
    List.iteri
      (fun i v ->
        entry.sums.(i) <- op entry.sums.(i) v;
        match v with
        | Value.Float f -> entry.mags.(i) <- entry.mags.(i) +. Float.abs f
        | _ -> ())
      contrib;
    entry.count <- entry.count + sign
  in
  List.iter
    (fun change ->
      match change with
      | Insert row -> add_row 1 row
      | Delete row -> add_row (-1) row
      | Update (old_row, new_row) ->
        add_row (-1) old_row;
        add_row 1 new_row)
    changes;
  let is_zero v =
    match v with Value.Int 0 -> true | Value.Float 0.0 -> true | _ -> false
  in
  List.rev !order
  |> List.filter_map (fun key ->
         let { sums; mags; count } = Key_tbl.find acc key in
         (* A count-0 group's rows cancelled exactly; any float sum left is
            rounding residue.  Clean residues within tolerance so the group
            drops out as the phantom delta it is, instead of surviving to
            smear epsilon onto (or no-op against) a target the round never
            logically touched. *)
         if count = 0 then
           Array.iteri
             (fun i v ->
               match v with
               | Value.Float f when Float.abs f <= residue_eps *. mags.(i) ->
                 sums.(i) <- Value.Float 0.0
               | _ -> ())
             sums;
         if count = 0 && Array.for_all is_zero sums then None
         else Some { key; agg_delta = Array.to_list sums; count_delta = count })


let change_count changes =
  List.fold_left
    (fun (i, d, u) c ->
      match c with
      | Insert _ -> (i + 1, d, u)
      | Delete _ -> (i, d + 1, u)
      | Update _ -> (i, d, u + 1))
    (0, 0, 0) changes
