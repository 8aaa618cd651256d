(** Short-duration latches.

    §4 of the paper requires that while a tuple is being modified a latch
    keeps readers from seeing a partly-modified record, released as soon as
    the modification completes (not at commit).  With reader sessions on
    their own OCaml 5 domains this is a {e real} reader-writer latch:
    shared holders (page scans) coexist, an exclusive holder (a page
    mutation) excludes everyone, and waiting writers bar new readers so
    maintenance cannot starve.  The module still enforces the historical
    {e discipline} errors — same-domain re-entry and release-while-free
    raise [Failure] instead of self-deadlocking — and counts acquisitions
    so experiments can report latch traffic. *)

type t

val create : string -> t
(** [create name] labels the latch for error messages. *)

val acquire : t -> unit
(** Exclusive acquire; blocks while any holder (shared or exclusive)
    remains.  Raises [Failure] if the calling domain already holds the
    latch exclusively — a latch-discipline bug, not a wait. *)

val release : t -> unit
(** Raises [Failure] if not exclusively held. *)

val try_shared : t -> bool
(** Non-blocking shared acquire: [false] iff an exclusive holder is
    active.  Unlike the blocking shared acquire behind {!with_shared} it
    ignores waiting writers — the caller never blocks, so it cannot starve
    them. *)

val release_shared : t -> unit
(** Raises [Failure] if no shared holder exists. *)

val with_latch : t -> (unit -> 'a) -> 'a
(** Exclusive acquire, run, release (also on exception). *)

val with_shared : t -> (unit -> 'a) -> 'a
(** Shared acquire, run, release (also on exception). *)

val held : t -> bool
(** Whether an exclusive holder exists (racy snapshot). *)

val acquisitions : t -> int
(** Total number of successful acquisitions, shared and exclusive. *)
