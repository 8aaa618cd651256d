module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value

type change = Insert of Tuple.t | Delete of Tuple.t | Update of Tuple.t * Tuple.t

type group_delta = {
  key : Value.t list;
  hash : int;
  agg_delta : Value.t list;
  count_delta : int;
}

(* One mutable accumulator per group, updated in place: netting a
   warehouse-sized batch is the first pass of every refresh, and a
   persistent map would rebuild a tree path (and allocate its spine) per
   source change. *)
type acc = {
  key : Value.t list;
  hash : int;
  sums : Value.t array;
  mags : float array;
  mutable count : int;
}

(* Relative tolerance for float cancellation residues.  A group whose rows
   net to nothing still accumulates rounding error proportional to the
   magnitudes summed ((0.1 +. 0.2) -. 0.3 <> 0.), so "zero" for a float
   sum is judged against the running sum of |contribution|, not
   absolutely. *)
let residue_eps = 1e-12

(* A row's group is found by hashing and comparing its group cells where
   they are ([Value.hash] agrees with [Value.equal]), so a row of a group
   already seen builds no key list; only a new group's key is built.  The
   combine is {!Vnl_index.Hash_index.Key.hash}'s, so the hash travels on
   the group's delta to the refresh's index probe. *)
let rec hash_at row h = function
  | [] -> h land max_int
  | p :: rest -> hash_at row ((h * 31) + Value.hash (Tuple.get row p)) rest

let rec same_at row key positions =
  match (key, positions) with
  | k :: ks, p :: ps -> Value.equal k (Tuple.get row p) && same_at row ks ps
  | [], [] -> true
  | _ -> false

let rec find_group row h positions = function
  | [] -> raise_notrace Not_found
  | g :: rest ->
    if g.hash = h && same_at row g.key positions then g else find_group row h positions rest

let net_group_deltas view changes =
  (* Sized from the batch: a change touches at most two groups, so a chain
     averages at most two groups.  A small batch's bucket array then stays
     under the minor heap's 256-word limit; a fixed 1024 buckets would make
     every refresh, however small, start with a major-heap allocation. *)
  let size =
    let len = List.length changes in
    let rec pow2 n = if n >= len then n else pow2 (2 * n) in
    pow2 16
  in
  let buckets = Array.make size [] and order = ref [] in
  (* Once per call, not per row: the group positions, each aggregate's
     source position (-1 for COUNT, which adds 1) and the zero template a
     new group starts from. *)
  let positions = View_def.group_positions view in
  let sources =
    Array.of_list (List.map (function Some p -> p | None -> -1) (View_def.sum_positions view))
  in
  let zeros = Array.of_list (View_def.zero_contribution view) in
  let n = Array.length sources in
  let add_row sign row =
    let h = hash_at row 0 positions in
    let b = h land (size - 1) in
    let g =
      try find_group row h positions buckets.(b)
      with Not_found ->
        let g =
          {
            key = View_def.group_key view row;
            hash = h;
            sums = Array.copy zeros;
            mags = Array.make n 0.;
            count = 0;
          }
        in
        buckets.(b) <- g :: buckets.(b);
        order := g :: !order;
        g
    in
    for i = 0 to n - 1 do
      let src = Array.unsafe_get sources i in
      let v = if src < 0 then Value.Int 1 else Tuple.get row src in
      g.sums.(i) <- (if sign > 0 then Value.add else Value.sub) g.sums.(i) v;
      match v with
      | Value.Float f -> g.mags.(i) <- g.mags.(i) +. Float.abs f
      | _ -> ()
    done;
    g.count <- g.count + sign
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
  List.fold_left
    (fun acc { key; hash; sums; mags; count } ->
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
      if count = 0 && Array.for_all is_zero sums then acc
      else { key; hash; agg_delta = Array.to_list sums; count_delta = count } :: acc)
    [] !order

let change_count changes =
  List.fold_left
    (fun (i, d, u) c ->
      match c with
      | Insert _ -> (i + 1, d, u)
      | Delete _ -> (i, d + 1, u)
      | Update _ -> (i, d, u + 1))
    (0, 0, 0) changes
