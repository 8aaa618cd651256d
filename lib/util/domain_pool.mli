(** A small fork-join domain pool.

    Drives the parallel serving scenarios: one maintenance domain plus N
    reader domains over shared warehouse state.  Results are joined into
    an array indexed by domain rank; an exception in any job propagates
    from the join. *)

val run : domains:int -> (start:(unit -> unit) -> int -> 'a) -> 'a array
(** [run ~domains f] spawns [domains] domains running [f ~start rank]
    (ranks [0 .. domains-1]) and joins them all.  [start] is a barrier:
    calling it blocks until every domain has called it, so timed sections
    can begin simultaneously after spawn overhead.  Raises
    [Invalid_argument] when [domains < 1]. *)

(** Long-running service domains: spawn [count] loops that run until the
    owner tells them (through its own state) to stop, then [join].  The
    fork-join helpers above assume jobs terminate by themselves; a network
    server's accept and worker loops do not. *)
module Group : sig
  type t

  val spawn : count:int -> (int -> unit) -> t
  (** Spawn [count] domains running [f rank].  Raises [Invalid_argument]
      when [count < 1]. *)

  val join : t -> unit
  (** Join every domain (idempotent), then re-raise the first exception
      any of them died with.  The caller must already have signalled the
      loops to stop, or this blocks forever. *)
end

(** A persistent fork-join pool: helper domains spawned once, parked on a
    condition variable between jobs.  Spawning and joining a domain costs
    milliseconds — more than a pipelined maintenance round's useful work —
    so loops running many small fork-joins must reuse domains. *)
module Persistent : sig
  type t

  val create : domains:int -> t
  (** Spawn [domains - 1] helper domains (the submitting caller is always
      runner 0).  Raises [Invalid_argument] when [domains < 1]. *)

  val size : t -> int
  (** Runners available per job, including the caller. *)

  val parallel : t -> domains:int -> (int -> unit) -> unit
  (** Run [f rank] for ranks [0 .. domains-1]: rank 0 on the calling
      domain, the rest on parked helpers.  Blocks until every rank
      finishes; re-raises the caller's exception first, else the first
      helper exception.  One job at a time — not re-entrant.  Raises
      [Invalid_argument] when [domains] exceeds {!size} or the pool is
      shut down. *)

  val shutdown : t -> unit
  (** Stop and join the helper domains.  Idle pools may also simply be
      dropped: parked helpers never hold work and do not block process
      exit. *)
end
