module Value = Vnl_relation.Value

module Key = struct
  type t = Value.t list

  let rec equal a b =
    match (a, b) with
    | [], [] -> true
    | x :: xs, y :: ys -> Value.equal x y && equal xs ys
    | _ -> false

  (* The combine of [Delta.hash_at] and [Plan.Keytbl]. *)
  let rec hash_from h = function
    | [] -> h land max_int
    | v :: rest -> hash_from ((h * 31) + Value.hash v) rest

  let hash key = hash_from 0 key
end

module Key_tbl = Hashtbl.Make (Key)

(* Immutable chains: a write builds a new chain and stores it over the old
   one, so a reader walking a chain never sees it change under it.  The
   hash is kept with the entry, which skips most key comparisons on a
   chain and lets a resize redistribute without rehashing. *)
type 'a bucket = Nil | Cons of { key : Key.t; hash : int; value : 'a; next : 'a bucket }

type 'a t = {
  buckets : 'a bucket array Atomic.t;
      (** Length a power of two.  Swapped whole by a resize; between
          resizes the writer stores chains into the live array. *)
  mutable length : int;
}

let create ?(size = 16) () =
  let rec pow2 n = if n >= size then n else pow2 (2 * n) in
  { buckets = Atomic.make (Array.make (pow2 8) Nil); length = 0 }

let rec find_in key h = function
  | Nil -> None
  | Cons c -> if c.hash = h && Key.equal c.key key then Some c.value else find_in key h c.next

let rec mem_in key h = function
  | Nil -> false
  | Cons c -> (c.hash = h && Key.equal c.key key) || mem_in key h c.next

(* The chain without [key]'s entry, which must be on it: the prefix before
   the entry is copied, the suffix after it shared. *)
let rec without key h = function
  | Nil -> Nil
  | Cons c ->
    if c.hash = h && Key.equal c.key key then c.next
    else Cons { c with next = without key h c.next }

let find_hashed t ~hash key =
  let a = Atomic.get t.buckets in
  find_in key hash (Array.unsafe_get a (hash land (Array.length a - 1)))

let find t key = find_hashed t ~hash:(Key.hash key) key

let mem t key =
  let a = Atomic.get t.buckets in
  let h = Key.hash key in
  mem_in key h (Array.unsafe_get a (h land (Array.length a - 1)))

(* A reader still holding the old array keeps seeing its last state: the
   writer never stores into it again. *)
let resize t old =
  let size = 2 * Array.length old in
  let a = Array.make size Nil in
  let rec move = function
    | Nil -> ()
    | Cons c ->
      let i = c.hash land (size - 1) in
      a.(i) <- Cons { c with next = a.(i) };
      move c.next
  in
  Array.iter move old;
  Atomic.set t.buckets a

let replace t key value =
  let a = Atomic.get t.buckets in
  let h = Key.hash key in
  let i = h land (Array.length a - 1) in
  let chain = a.(i) in
  if mem_in key h chain then a.(i) <- Cons { key; hash = h; value; next = without key h chain }
  else begin
    a.(i) <- Cons { key; hash = h; value; next = chain };
    t.length <- t.length + 1;
    if t.length > Array.length a then resize t a
  end

let remove t key =
  let a = Atomic.get t.buckets in
  let h = Key.hash key in
  let i = h land (Array.length a - 1) in
  let chain = a.(i) in
  if mem_in key h chain then begin
    a.(i) <- without key h chain;
    t.length <- t.length - 1;
    true
  end
  else false

let length t = t.length

let capacity t = Array.length (Atomic.get t.buckets)
