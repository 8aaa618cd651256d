(** Epoch pins for latch-free readers.

    The global epoch is the warehouse's published version number.  Readers
    {e pin} it for the lifetime of a session; the garbage collector reads
    the {e horizon} ({!min_pinned}: the minimum pinned epoch, bounded above
    by the current epoch) and keeps every version a pin at or above it can
    still see.  2VNL's collection needs only that horizon — versions live
    in the tuples themselves — so there is no retire bag.  All operations
    are lock-free — pinning is one CAS into a slot array that grows by
    publishing a copy with shared cells — so session open and expiry never
    serialize readers behind a mutex. *)

type slot
(** One pin cell.  Owned by a single session between {!pin} and {!unpin};
    {!min_pinned} reads it concurrently. *)

type t

val create : ?initial:int -> ?slots:int -> unit -> t
(** [initial] is the starting epoch (default 0); [slots] the initial pin
    capacity (default 16, grows on demand).  Raises [Invalid_argument] if
    [slots < 1]. *)

val current : t -> int

val advance : t -> int -> unit
(** Publish epoch [e].  Monotone: an older [e] is a no-op, so concurrent
    publishers cannot move the epoch backwards. *)

val pin : ?current:(unit -> int) -> t -> slot * int
(** Acquire a slot and pin the current epoch, returning the slot and the
    epoch actually pinned.  The protocol is store-then-revalidate: the
    candidate epoch is written into the slot and the current epoch
    re-read, retrying until they agree — so a collector that advanced the
    epoch and folded over the slots concurrently either saw this pin or
    forced it onto the newer epoch.  [?current] overrides the epoch read
    (the warehouse reads its version state, which owns the authoritative
    value); it must be monotone and consistent with {!advance}. *)

val unpin : slot -> unit
(** Release the slot for reuse.  The caller must not touch it again. *)

val pinned_epoch : slot -> int option
(** [None] once unpinned. *)

val min_pinned : t -> int
(** The horizon: the minimum pinned epoch across all slots, or the current
    epoch when nothing is pinned. *)
