(** Attribute values.

    Values carry their own constructor; typing against a schema is checked at
    tuple construction.  SQL NULL is a first-class value ([Null]); physical
    encoding represents it with an in-band sentinel so byte widths match the
    paper's Figure 3 layout. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Date of int  (** yyyymmdd encoding, e.g. [19961014]. *)
  | Bool of bool
  | Null

val is_null : t -> bool

val matches : Dtype.t -> t -> bool
(** [matches dt v] holds when [v] is [Null] or has constructor [dt] (strings
    also check the width bound). *)

val compare : t -> t -> int
(** Total order: [Null] sorts lowest; values of distinct types order by an
    arbitrary fixed type rank (queries never compare across types). *)

val equal : t -> t -> bool

val add : t -> t -> t
(** Numeric addition with SQL NULL propagation; [Int]+[Int] stays [Int]. *)

val sub : t -> t -> t
val neg : t -> t

val mul : t -> t -> t
val div : t -> t -> t
(** Division; integer division on two [Int]s.  Raises [Division_by_zero]. *)

val to_float : t -> float
(** Numeric coercion; 0 for [Null].  Raises [Invalid_argument] on
    non-numeric values. *)

val date_of_mdy : int -> int -> int -> t
(** [date_of_mdy m d y] builds a [Date]; two-digit years are interpreted in
    the 1900s as in the paper's examples. *)

val pp : Format.formatter -> t -> unit
(** Paper-style rendering: dates as [mm/dd/yy], integers with thousands
    separators ("10,000"), NULL as [null]. *)

val to_string : t -> string

val encode : Dtype.t -> t -> bytes
(** Physical encoding at exactly [Dtype.width]; [Null] uses the type's
    sentinel.  Raises [Invalid_argument] when [v] does not match the type. *)

val decode : Dtype.t -> bytes -> int -> t
(** [decode dt buf off] reads a value of type [dt] at offset [off]. *)

val hash : t -> int
(** Hash consistent with [equal]: [Int n] and [Float (float_of_int n)]
    hash alike.  Used by group-by hash tables. *)

(** A per-scan string dictionary: decoding through it gives every
    repeated string cell the same shared [Str] value, so a scan allocates
    each distinct string once rather than once per record. *)
module Intern : sig
  type value := t

  type t

  val create : unit -> t

  val decode : t -> Dtype.t -> bytes -> int -> value
  (** {!decode}, with string cells looked up in place (no allocation on a
      hit).  Not thread-safe: one dictionary per scan. *)
end
