(** Tuples: schema-typed value vectors with fixed-width physical encoding.

    Physical encoding is what heap pages store; the in-place update
    requirement of §4 is satisfiable because encoded width depends only on
    the schema, never on the values. *)

type t
(** An immutable tuple.  Updates produce new tuples; the heap file overwrites
    the physical record in place. *)

val make : Schema.t -> Value.t list -> t
(** Build a tuple; raises [Invalid_argument] on arity or type mismatch. *)

val check_value : Schema.t -> int -> Value.t -> unit
(** [check_value schema i v] is {!make}'s check of one cell: raises
    [Invalid_argument], with {!make}'s message, unless [v] fits attribute
    [i].  For writers that store single cells ({!Value.write_cell}). *)

val of_array : Schema.t -> Value.t array -> t
(** Like [make] from an array; the array is copied. *)

val unsafe_of_array : Value.t array -> t
(** Adopt the array without copying or type-checking.  For engine-internal
    hot paths whose values are already schema-typed (e.g. projections of a
    stored tuple); the caller must not retain the array. *)

val unsafe_init : int -> (int -> Value.t) -> t
(** Build a tuple positionally without type-checking; same contract as
    {!unsafe_of_array}. *)

val arity : t -> int

val get : t -> int -> Value.t

val get_by_name : Schema.t -> t -> string -> Value.t
(** Raises [Not_found] for unknown attribute names. *)

val set : t -> int -> Value.t -> t
(** Functional single-position update (no type re-check; callers are the
    typed layers above). *)

val set_many : t -> (int * Value.t) list -> t

val values : t -> Value.t list

val project : t -> int list -> Value.t list
(** Extract the values at the given positions, in the given order. *)

val key_of : Schema.t -> t -> Value.t list
(** The tuple's unique-key values (empty list when the schema has none). *)

val equal : t -> t -> bool

val hash : t -> int
(** Non-negative hash consistent with {!equal}, combined from
    {!Value.hash} position by position. *)

val compare : t -> t -> int
(** Lexicographic by position using {!Value.compare}. *)

val encode_into : Schema.t -> t -> bytes -> int -> unit
(** [encode_into schema t buf off] writes [t]'s fixed-width physical record
    over the [Schema.width schema] bytes of [buf] at [off].  The whole
    tuple is validated first (arity, and {!Value.matches} per cell, as
    {!make} checks), so on [Invalid_argument] — a rejected tuple, or a
    record that does not fit — no byte of [buf] has changed.  Every byte
    of the record is written, so the target need not be blank: heap files
    encode straight into the page slot, over the old record. *)

val encode : Schema.t -> t -> bytes
(** [encode_into] a fresh buffer of exactly [Schema.width] bytes.  Record
    writes use {!encode_into}; this allocating form is for callers that
    need the record as a value. *)

val decode : Schema.t -> bytes -> t
(** Inverse of [encode]; reads from offset 0. *)

val decode_from : Schema.t -> bytes -> int -> t
(** [decode_from schema buf off] decodes a record that starts at [off],
    letting page scans decode straight out of the frame image without
    copying the record bytes first. *)

val pp : Schema.t -> Format.formatter -> t -> unit
(** Render as [(v1, v2, ...)] with paper-style value formatting. *)

val to_strings : t -> string list
(** One rendered cell per attribute, for table output. *)
