(** Unique-key hash index over composite attribute keys.

    Maintenance transactions probe a relation by its unique key on every
    logical operation (the key-conflict test of Table 2 and the cursor
    selections of §4.2).  §4.3 notes that an index on the non-updatable
    group-by key of a summary table is unaffected by 2VNL; nothing asks that
    index for order, so it is a hash table: a probe hashes the key and walks
    one short bucket instead of a root-to-leaf path of cold tree nodes.

    {b Readers on other domains.}  One writer at a time mutates the index
    (handing it on through a synchronizing operation); any number of reader
    domains may {!find} and {!mem} concurrently, without locks.  Each bucket
    is an immutable list that a write replaces whole, and a resize builds a
    new bucket array and publishes it with one atomic write, so a reader
    always sees some state the writer published — the property the
    functional B+-tree gets from path-copying under one root.

    {b Hash and equality.}  Keys are lists of {!Vnl_relation.Value.t}
    compared cell by cell with {!Vnl_relation.Value.equal}; the hash
    combines {!Vnl_relation.Value.hash} per cell, so [Int n] and
    [Float (float n)] keys are one key, as they are to the SQL layer. *)

module Key : Hashtbl.HashedType with type t = Vnl_relation.Value.t list
(** Composite-key equality ({!Vnl_relation.Value.equal} per cell, equal
    lengths) and a hash that agrees with it. *)

module Key_tbl : Hashtbl.S with type key = Vnl_relation.Value.t list
(** Single-domain scratch tables keyed by {!Key}, for the batch groupers. *)

type 'a t
(** Index mapping composite keys to ['a] payloads (typically heap rids). *)

val create : ?size:int -> unit -> 'a t
(** [size] is the number of keys expected (default 16): the table starts
    with enough buckets that inserting that many does not resize. *)

val find : 'a t -> Vnl_relation.Value.t list -> 'a option

val find_hashed : 'a t -> hash:int -> Vnl_relation.Value.t list -> 'a option
(** {!find} with the key's {!Key.hash} already computed, for a caller that
    hashed the key's cells itself (the refresh's netting pass); a [hash]
    that disagrees with {!Key.hash} misses. *)

val mem : 'a t -> Vnl_relation.Value.t list -> bool

val replace : 'a t -> Vnl_relation.Value.t list -> 'a -> unit
(** Insert, or re-point a present key at a new payload.  Doubles the bucket
    array when the keys outnumber the buckets. *)

val remove : 'a t -> Vnl_relation.Value.t list -> bool
(** Returns whether the key was present.  The bucket array never shrinks. *)

val length : 'a t -> int

val capacity : 'a t -> int
(** Current number of buckets (a power of two). *)
