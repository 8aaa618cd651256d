(** Session-expiry policies and the nVNL guarantee formula (§2.1, §5).

    With maintenance transactions of length at least [m] separated by gaps
    of at least [i], nVNL guarantees that sessions no longer than
    [(n - 1) * (i + m) - m] never expire; for 2VNL this is just [i]. *)

val never_expire_bound : n:int -> gap:int -> txn_len:int -> int
(** [(n - 1) * (gap + txn_len) - txn_len].  Raises [Invalid_argument] when
    [n < 2] or a duration is negative. *)

type policy =
  | Fixed_schedule  (** Commit on schedule; sessions may expire (§2.1). *)
  | Commit_when_quiescent
      (** Commit only when no reader session is active: sessions never
          expire but readers can starve the maintenance transaction. *)
  | More_versions of int
      (** Run nVNL with the given [n], widening the no-expiry window. *)

val policy_name : policy -> string

val versions_needed : session_len:int -> gap:int -> txn_len:int -> int
(** Smallest [n >= 2] whose {!never_expire_bound} covers sessions of
    [session_len] — the tuning knob §5 describes.  Computed in closed form.
    Raises [Invalid_argument] on negative durations and on the degenerate
    [gap = 0 && txn_len = 0] with positive [session_len], whose bound is 0
    for every [n]. *)
