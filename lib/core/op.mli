(** Logical maintenance operations and their net effect (§3.3).

    The [operation] attribute of an extended tuple records the net effect of
    all operations the most recent maintenance transaction performed on it:
    e.g. an insert followed by an update in the same transaction is still an
    insert, and a delete followed by an insert is an update.  Getting this
    wrong makes readers extract the wrong tuple version, which is why the
    combination rules are explicit and property-tested. *)

type t = Insert | Update | Delete

exception Impossible of string
(** An operation sequence the paper's decision tables mark "impossible"
    (e.g. updating an already-deleted tuple). *)

val combine_same_txn : previous:t -> t -> [ `Becomes of t | `Physically_delete ]
(** Net effect of applying a new logical operation to a tuple already
    bearing [previous] from the {e same} maintenance transaction:
    - insert then update = insert;
    - insert then delete = physically delete the tuple;
    - update then update = update;
    - update then delete = delete;
    - delete then insert = update.
    Raises {!Impossible} for update/delete after delete and insert after
    insert or update. *)

val check_older_txn : previous:t -> t -> unit
(** Validate a new logical operation against a tuple last touched by an
    {e older} transaction: inserting over a live (insert/update) tuple with
    the same key, or updating/deleting an already-deleted tuple, raises
    {!Impossible}. *)

val to_value : t -> Vnl_relation.Value.t
(** One-byte physical encoding (["i"], ["u"], ["d"]) — the [operation]
    attribute is 1 byte in Figure 3. *)

val of_value : Vnl_relation.Value.t -> t
(** Raises [Invalid_argument] on anything but the three codes. *)

val code : t -> char
(** The byte {!to_value}'s one-character string encodes to: the operation
    cell's raw content. *)

val of_code : char -> t
(** Inverse of {!code}; raises [Invalid_argument] on any other byte (a
    [NULL] operation cell holds ['\xff']). *)

val to_string : t -> string
(** Paper-style spelling: ["insert"], ["update"], ["delete"]. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

val all : t list
