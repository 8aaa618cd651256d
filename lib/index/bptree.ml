module Value = Vnl_relation.Value

module Key = struct
  type t = Value.t list

  let rec compare a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs, y :: ys ->
      let c = Value.compare x y in
      if c <> 0 then c else compare xs ys
end

(* Functional nodes under a mutable root: inserts path-copy and report splits
   upward; deletes path-copy without rebalancing. *)
type 'a node =
  | Leaf of (Key.t * 'a) array
  | Inner of Key.t array * 'a node array
      (** [Inner (seps, children)]: [Array.length children = Array.length seps + 1];
          keys in [children.(i)] are [< seps.(i)] and [>= seps.(i-1)]. *)

type 'a t = { order : int; mutable root : 'a node; mutable length : int }

let create ?(order = 32) () =
  if order < 4 then invalid_arg "Bptree.create: order must be >= 4";
  { order; root = Leaf [||]; length = 0 }

(* The child of [Inner] whose subtree may contain [key]: the first [i]
   with [key < seps.(i)], or [Array.length seps].  Binary search: a node
   holds up to [order] separators and each comparison walks a key list.
   The searches are top-level recursions, not local closures, so a probe
   allocates nothing on the way down. *)
let rec child_search seps key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Key.compare key (Array.unsafe_get seps mid) < 0 then child_search seps key lo mid
    else child_search seps key (mid + 1) hi

let child_index seps key = child_search seps key 0 (Array.length seps)

let rec leaf_find entries key lo hi =
  if lo >= hi then (lo, false)
  else
    let mid = (lo + hi) lsr 1 in
    let c = Key.compare key (fst (Array.unsafe_get entries mid)) in
    if c = 0 then (mid, true)
    else if c < 0 then leaf_find entries key lo mid
    else leaf_find entries key (mid + 1) hi

(* Position of [key] in a sorted entry array, or the insertion point. *)
let leaf_search entries key = leaf_find entries key 0 (Array.length entries)

let array_insert arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j -> if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

let array_set arr i x =
  let copy = Array.copy arr in
  copy.(i) <- x;
  copy

type 'a push = One of 'a node | Two of 'a node * Key.t * 'a node

let split_leaf entries =
  let n = Array.length entries in
  let mid = n / 2 in
  let left = Array.sub entries 0 mid and right = Array.sub entries mid (n - mid) in
  Two (Leaf left, fst right.(0), Leaf right)

let split_inner seps children =
  let n = Array.length seps in
  let mid = n / 2 in
  let up = seps.(mid) in
  let lseps = Array.sub seps 0 mid and rseps = Array.sub seps (mid + 1) (n - mid - 1) in
  let lkids = Array.sub children 0 (mid + 1)
  and rkids = Array.sub children (mid + 1) (Array.length children - mid - 1) in
  Two (Inner (lseps, lkids), up, Inner (rseps, rkids))

let rec insert_node order node key payload =
  match node with
  | Leaf entries -> (
    let i, found = leaf_search entries key in
    if found then (One (Leaf (array_set entries i (key, payload))), false)
    else
      let entries = array_insert entries i (key, payload) in
      ((if Array.length entries > order then split_leaf entries else One (Leaf entries)), true))
  | Inner (seps, children) -> (
    let ci = child_index seps key in
    let pushed, grew = insert_node order children.(ci) key payload in
    match pushed with
    | One child -> (One (Inner (seps, array_set children ci child)), grew)
    | Two (left, up, right) ->
      let seps = array_insert seps ci up in
      let children = array_insert (array_set children ci left) (ci + 1) right in
      ((if Array.length seps > order then split_inner seps children else One (Inner (seps, children))), grew))

let insert t key payload =
  let pushed, grew = insert_node t.order t.root key payload in
  (match pushed with
  | One node -> t.root <- node
  | Two (left, up, right) -> t.root <- Inner ([| up |], [| left; right |]));
  if grew then t.length <- t.length + 1

let rec find_node node key =
  match node with
  | Leaf entries ->
    let i, found = leaf_search entries key in
    if found then Some (snd entries.(i)) else None
  | Inner (seps, children) -> find_node children.(child_index seps key) key

let find t key = find_node t.root key

let mem t key = find t key <> None

let rec remove_node node key =
  match node with
  | Leaf entries ->
    let i, found = leaf_search entries key in
    if found then Some (Leaf (array_remove entries i)) else None
  | Inner (seps, children) -> (
    let ci = child_index seps key in
    match remove_node children.(ci) key with
    | None -> None
    | Some child -> (
      (* Drop children that became completely empty leaves. *)
      match child with
      | Leaf [||] when Array.length children > 1 ->
        let seps = array_remove seps (if ci = 0 then 0 else ci - 1) in
        let children = array_remove children ci in
        if Array.length children = 1 then Some children.(0) else Some (Inner (seps, children))
      | _ -> Some (Inner (seps, array_set children ci child))))

let remove t key =
  match remove_node t.root key with
  | None -> false
  | Some root ->
    t.root <- root;
    t.length <- t.length - 1;
    true

let length t = t.length

let height t =
  let rec loop = function Leaf _ -> 1 | Inner (_, children) -> 1 + loop children.(0) in
  loop t.root

let rec iter_node node f =
  match node with
  | Leaf entries -> Array.iter (fun (k, v) -> f k v) entries
  | Inner (_, children) -> Array.iter (fun c -> iter_node c f) children

let iter t f = iter_node t.root f

let range t ?lo ?hi f =
  let above k = match lo with None -> true | Some lo -> Key.compare k lo >= 0 in
  let below k = match hi with None -> true | Some hi -> Key.compare k hi <= 0 in
  (* Descend only into children whose separator interval intersects
     [lo, hi]. *)
  let rec go = function
    | Leaf entries -> Array.iter (fun (k, v) -> if above k && below k then f k v) entries
    | Inner (seps, children) ->
      let n = Array.length children in
      for i = 0 to n - 1 do
        let child_hi = if i = n - 1 then None else Some seps.(i) in
        let child_lo = if i = 0 then None else Some seps.(i - 1) in
        let skip =
          (match (lo, child_hi) with
          | Some lo, Some chi -> Key.compare chi lo <= 0
          | _ -> false)
          ||
          match (hi, child_lo) with
          | Some hi, Some clo -> Key.compare clo hi > 0
          | _ -> false
        in
        if not skip then go children.(i)
      done
  in
  go t.root

let to_list t =
  let acc = ref [] in
  iter t (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ok = Ok "ok" in
  let rec check node ~lo ~hi ~is_root =
    let in_bounds k =
      (match lo with None -> true | Some b -> Key.compare k b >= 0)
      && match hi with None -> true | Some b -> Key.compare k b < 0
    in
    match node with
    | Leaf entries ->
      let n = Array.length entries in
      if (not is_root) && n > t.order then fail "leaf overflow: %d" n
      else
        let rec sorted i =
          if i + 1 >= n then ok
          else if Key.compare (fst entries.(i)) (fst entries.(i + 1)) >= 0 then
            fail "leaf keys not strictly sorted at %d" i
          else sorted (i + 1)
        in
        if Array.exists (fun (k, _) -> not (in_bounds k)) entries then
          fail "leaf key outside separator bounds"
        else sorted 0
    | Inner (seps, children) ->
      if Array.length children <> Array.length seps + 1 then fail "inner child/sep mismatch"
      else if Array.length seps > t.order then fail "inner overflow: %d" (Array.length seps)
      else if Array.exists (fun k -> not (in_bounds k)) seps then
        fail "separator outside bounds"
      else
        let n = Array.length children in
        let rec loop i =
          if i >= n then ok
          else
            let clo = if i = 0 then lo else Some seps.(i - 1)
            and chi = if i = n - 1 then hi else Some seps.(i) in
            match check children.(i) ~lo:clo ~hi:chi ~is_root:false with
            | Ok _ -> loop (i + 1)
            | Error _ as e -> e
        in
        loop 0
  in
  match check t.root ~lo:None ~hi:None ~is_root:true with
  | Error _ as e -> e
  | Ok _ ->
    let counted = ref 0 in
    iter t (fun _ _ -> incr counted);
    if !counted <> t.length then fail "length mismatch: counted %d, recorded %d" !counted t.length
    else ok
