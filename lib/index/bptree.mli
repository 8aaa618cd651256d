(** B+-tree index over composite attribute keys.

    Secondary indexes ({!Vnl_query.Table.create_index}) are B+-trees because
    their lookups are range scans over an attribute prefix; the unique key,
    which is only ever probed for equality, has a {!Hash_index}.  §4.3 of the
    paper notes that indexes on non-updatable attributes are unaffected by
    2VNL, so an index built over the base attributes serves the extended
    relation too.

    Keys are lists of {!Vnl_relation.Value.t} compared lexicographically and
    must be unique (duplicate insertion replaces the payload).  Deletion does
    not rebalance (like several production engines, deleted space is reused
    by later inserts); lookups and range scans remain correct. *)

type 'a t
(** Index mapping composite keys to ['a] payloads (typically heap rids). *)

val create : ?order:int -> unit -> 'a t
(** [order] is the maximum entries per node, default 32, minimum 4. *)

val insert : 'a t -> Vnl_relation.Value.t list -> 'a -> unit
(** Insert or replace. *)

val find : 'a t -> Vnl_relation.Value.t list -> 'a option

val mem : 'a t -> Vnl_relation.Value.t list -> bool

val remove : 'a t -> Vnl_relation.Value.t list -> bool
(** Returns whether the key was present. *)

val length : 'a t -> int

val height : 'a t -> int
(** Tree height; 1 for a single leaf. *)

val iter : 'a t -> (Vnl_relation.Value.t list -> 'a -> unit) -> unit
(** Visit all entries in ascending key order (lexicographic by
    {!Vnl_relation.Value.compare} per cell). *)

val range :
  'a t ->
  ?lo:Vnl_relation.Value.t list ->
  ?hi:Vnl_relation.Value.t list ->
  (Vnl_relation.Value.t list -> 'a -> unit) ->
  unit
(** Visit entries with [lo <= key <= hi] in ascending order; missing bounds
    are unbounded. *)

val to_list : 'a t -> (Vnl_relation.Value.t list * 'a) list
(** All entries in ascending key order. *)

val check_invariants : 'a t -> (string, string) result
(** Verify ordering, separator correctness, and node-size bounds; returns
    [Error reason] on violation.  Used by property tests. *)
