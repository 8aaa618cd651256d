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

(* One root-to-leaf pass shared across a sorted batch of keys: at each inner
   node the (still sorted) key range is partitioned among the children, so
   upper levels are visited once per child interval instead of once per key.
   Cost is O(nodes overlapping the key range + batch size) against
   O(batch size * height) for independent probes. *)
let find_batch t keys =
  let n = Array.length keys in
  let out = Array.make n None in
  (* First index in [lo, hi) whose key is >= sep (binary search). *)
  let partition_point lo hi sep =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Key.compare keys.(mid) sep < 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let rec go node lo hi =
    match node with
    | Leaf entries ->
      for i = lo to hi - 1 do
        let j, found = leaf_search entries keys.(i) in
        if found then out.(i) <- Some (snd entries.(j))
      done
    | Inner (seps, children) ->
      (* Visit only the children that hold keys: pick the child of the next
         unresolved key, split its interval off by binary search, recurse.
         The keys are sorted, so the child index is monotone across
         intervals and the separator scan resumes where it left off —
         each separator is examined at most once per node visit. *)
      let nsep = Array.length seps in
      let start = ref lo and ci = ref 0 in
      while !start < hi do
        while !ci < nsep && Key.compare keys.(!start) seps.(!ci) >= 0 do
          incr ci
        done;
        let stop = if !ci = nsep then hi else partition_point (!start + 1) hi seps.(!ci) in
        go children.(!ci) !start stop;
        start := stop
      done
  in
  (for i = 1 to n - 1 do
     if Key.compare keys.(i - 1) keys.(i) > 0 then
       invalid_arg "Bptree.find_batch: keys not sorted"
   done);
  go t.root 0 n;
  out

let compare_keys = Key.compare

let rec first_key = function
  | Leaf entries -> fst entries.(0)
  | Inner (_, children) -> first_key children.(0)

(* One root-to-leaf pass inserting a sorted batch of pairs: like
   {!find_batch}, the separator scans and the path copies that per-key
   inserts would repeat per key happen once per touched node.  A node
   receiving many keys may fan out into several siblings; the parent
   separates them by first key, which bounds them exactly like a promoted
   separator would.  The resulting tree can differ in shape from the one
   per-key inserts build, but holds the same entries and the same
   invariants. *)
let insert_batch t pairs =
  let n = Array.length pairs in
  if n > 0 then begin
    for i = 1 to n - 1 do
      if Key.compare (fst pairs.(i - 1)) (fst pairs.(i)) >= 0 then
        invalid_arg "Bptree.insert_batch: keys not sorted or not distinct"
    done;
    let order = t.order in
    let added = ref 0 in
    (* First index in [lo, hi) whose key is >= sep. *)
    let partition_point lo hi sep =
      let lo = ref lo and hi = ref hi in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Key.compare (fst pairs.(mid)) sep < 0 then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    (* Split [arr] into [k] nearly equal contiguous chunks. *)
    let chunk_array mk arr k =
      let len = Array.length arr in
      let sz = (len + k - 1) / k in
      List.init k (fun c -> mk (Array.sub arr (c * sz) (min sz (len - (c * sz)))))
    in
    (* Replace [node] with one or more siblings holding its entries plus
       pairs[lo..hi); each sibling respects the node capacity. *)
    let rec go node lo hi =
      match node with
      | Leaf entries ->
        (* Binary-search each key's slot, then build the merged array with
           positional copies only — no comparisons during the copy. *)
        let m = Array.length entries and k = hi - lo in
        let pos = Array.make k 0 and repl = Array.make k false in
        let fresh = ref 0 in
        for x = 0 to k - 1 do
          let i, found = leaf_search entries (fst pairs.(lo + x)) in
          pos.(x) <- i;
          repl.(x) <- found;
          if not found then incr fresh
        done;
        added := !added + !fresh;
        let total = m + !fresh in
        let merged = Array.make total pairs.(lo) in
        let w = ref 0 and e = ref 0 in
        for x = 0 to k - 1 do
          while !e < pos.(x) do
            merged.(!w) <- entries.(!e);
            incr w;
            incr e
          done;
          merged.(!w) <- pairs.(lo + x);
          incr w;
          if repl.(x) then incr e (* the old entry is replaced, skip it *)
        done;
        while !e < m do
          merged.(!w) <- entries.(!e);
          incr w;
          incr e
        done;
        if total <= order then [ Leaf merged ]
        else chunk_array (fun a -> Leaf a) merged ((total + order - 1) / order)
      | Inner (seps, children) ->
        let nsep = Array.length seps in
        (* Resolve the touched children first; (child index, replacements)
           in reverse order. *)
        let repls = ref [] and split = ref false in
        let start = ref lo and ci = ref 0 in
        while !start < hi do
          while !ci < nsep && Key.compare (fst pairs.(!start)) seps.(!ci) >= 0 do
            incr ci
          done;
          let stop = if !ci = nsep then hi else partition_point (!start + 1) hi seps.(!ci) in
          let r = go children.(!ci) !start stop in
          (match r with [ _ ] -> () | _ -> split := true);
          repls := (!ci, r) :: !repls;
          start := stop
        done;
        if not !split then begin
          (* No child fanned out: one flat copy with the replacements
             written over it — the common steady-state path. *)
          let children = Array.copy children in
          List.iter
            (fun (i, r) -> match r with [ c ] -> children.(i) <- c | _ -> assert false)
            !repls;
          [ Inner (seps, children) ]
        end
        else begin
          (* Children in reverse, with the separator *preceding* each child
             except the leftmost alongside it. *)
          let acc = ref [] in
          let add ~sep c = acc := (sep, c) :: !acc in
          let copied = ref 0 in
          let copy_until upto =
            for i = !copied to upto - 1 do
              add ~sep:(if i = 0 then None else Some seps.(i - 1)) children.(i)
            done;
            copied := upto
          in
          List.iter
            (fun (i, r) ->
              copy_until i;
              (match r with
              | [] -> assert false
              | repl :: rest ->
                add ~sep:(if i = 0 then None else Some seps.(i - 1)) repl;
                List.iter (fun n -> add ~sep:(Some (first_key n)) n) rest);
              copied := i + 1)
            (List.rev !repls);
          copy_until (nsep + 1);
          let packed = Array.of_list (List.rev !acc) in
          let new_children = Array.map snd packed in
          let new_seps =
            Array.init
              (Array.length packed - 1)
              (fun i ->
                match fst packed.(i + 1) with Some s -> s | None -> assert false)
          in
          if Array.length new_seps <= order then [ Inner (new_seps, new_children) ]
          else begin
            (* Fan out into sibling inners of <= order separators; boundary
               separators are dropped — the parent re-separates by first
               key. *)
            let len = Array.length new_children in
            let k = (len + order) / (order + 1) in
            let sz = (len + k - 1) / k in
            List.init k (fun c ->
                let off = c * sz in
                let cnt = min sz (len - off) in
                Inner (Array.sub new_seps off (cnt - 1), Array.sub new_children off cnt))
          end
        end
    in
    (* Group sibling lists under new roots until a single root remains. *)
    let rec build = function
      | [ one ] -> one
      | nodes ->
        let arr = Array.of_list nodes in
        let len = Array.length arr in
        let k = (len + order) / (order + 1) in
        let sz = (len + k - 1) / k in
        build
          (List.init k (fun c ->
               let off = c * sz in
               let cnt = min sz (len - off) in
               let children = Array.sub arr off cnt in
               let seps = Array.init (cnt - 1) (fun i -> first_key children.(i + 1)) in
               Inner (seps, children)))
    in
    t.root <- build (go t.root 0 n);
    t.length <- t.length + !added
  end

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
