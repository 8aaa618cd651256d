(** Discrete-event simulator with effect-based cooperative processes.

    Processes are plain OCaml functions that perform {!delay} and {!await};
    the scheduler interleaves them deterministically on a logical clock.
    This drives the Figure 1 / Figure 2 scenarios and the blocking
    comparison of §6. *)

type t

exception Stuck of string list
(** Raised by {!run} when blocked processes remain but none can make
    progress (names of the stuck processes). *)

val create : unit -> t

val now : t -> int
(** Current simulation time in ticks. *)

val spawn : t -> ?at:int -> name:string -> (unit -> unit) -> unit
(** Register a process starting at time [at] (default: time 0, or the
    current time if the simulation is running). *)

val delay : int -> unit
(** Inside a process: consume [d >= 0] ticks of simulated time. *)

val await : (unit -> bool) -> unit
(** Inside a process: block until the predicate holds.  Predicates are
    re-evaluated after every event, so they should be cheap and depend on
    state other processes mutate. *)

val run : ?until:int -> t -> unit
(** Execute until no events remain (raising {!Stuck} if blocked processes
    never wake) or past time [until] (blocked processes are then abandoned
    silently). *)
