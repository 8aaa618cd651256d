(** Slotted page layout for fixed-width records.

    Because every attribute type has a fixed physical width
    (see {!Vnl_relation.Dtype}), each heap file stores records of one fixed
    width; a page is a small header, a one-byte-per-slot occupancy map, and a
    dense record area.  Fixed widths are what make the paper's required
    {e in-place} physical updates always possible (§4). *)

type layout = private {
  page_size : int;
  record_width : int;
  slots : int;  (** Records that fit on one page. *)
  flags_offset : int;
  records_offset : int;
}

val layout : page_size:int -> record_width:int -> layout
(** Compute the layout.  Raises [Invalid_argument] if even one record does
    not fit on a page. *)

val init : layout -> bytes -> unit
(** Format a fresh page image: all slots free. *)

val slot_used : layout -> bytes -> int -> bool

val read_slot : layout -> bytes -> int -> bytes
(** Copy of the record bytes in a used slot. *)

val write_slot_with : layout -> bytes -> int -> (bytes -> int -> unit) -> unit
(** [write_slot_with l page slot write] runs [write page off] with the
    slot's record offset, then marks the slot used (an insert or an
    in-place update).  [write] must fill exactly [record_width] bytes at
    [off]; heap files pass {!Vnl_relation.Tuple.encode_into}, so a record
    is encoded straight into the page.  If [write] raises, the slot's flag
    is left as it was. *)

val clear_slot : layout -> bytes -> int -> unit
(** Mark a slot free. *)

val first_free_slot : ?from:int -> layout -> bytes -> int option
(** The lowest free slot at or above [from] (default 0). *)

val used_count : layout -> bytes -> int

val record_offset : layout -> int -> int
(** Byte offset of a slot's record within the page image. *)

val iter_used_offsets : layout -> bytes -> (int -> int -> unit) -> unit
(** [iter_used_offsets l page f] applies [f slot offset] to every used
    slot in slot order, without copying the record bytes; the offsets are
    only meaningful while the page image is pinned and unmodified. *)

val rev_iter_used_offsets : layout -> bytes -> (int -> int -> unit) -> unit
(** {!iter_used_offsets} in descending slot order, for folds that cons. *)
