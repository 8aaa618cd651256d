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

val encode_into : Dtype.t -> t -> bytes -> int -> unit
(** [encode_into dt v buf off] writes [v]'s physical encoding over the
    [Dtype.width dt] bytes of [buf] at [off]; [Null] uses the type's
    sentinel.  Every byte of the cell is written (a string's tail past its
    length is zeroed), so the cell need not be blank: this is how a record
    is re-encoded over its old image in a page.  Raises [Invalid_argument],
    before writing any byte, when [v] does not match the type or the cell
    does not fit in [buf]. *)

val write_cell : Dtype.t -> t -> bytes -> int -> unit
(** {!encode_into} without its up-front checks, for {!Tuple.encode_into},
    which has already validated every cell and the record's bounds.  A
    mismatch or an overrun still raises [Invalid_argument], but possibly
    after some bytes of the cell have changed; everyone else calls
    {!encode_into}. *)

val encode : Dtype.t -> t -> bytes
(** [encode_into] a fresh buffer of exactly [Dtype.width] bytes. *)

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
