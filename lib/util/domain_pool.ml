(* A small domain pool: spawn N domains, run one job on each, join all.

   The parallel serving scenarios need exactly the fork-join shape — one
   maintenance domain plus N reader domains over shared warehouse state —
   and benchmarks need all participants to start together so the measured
   window excludes domain spawn cost.  [run] provides the barrier: each
   job receives a [start] thunk that blocks (spinning with
   [Domain.cpu_relax]) until every domain has reached it. *)

(* Persistent variant: helper domains are spawned once and parked on a
   condition variable between jobs.  Domain spawn + join costs milliseconds
   on this class of machine — far more than a pipelined maintenance round's
   useful work — so anything running rounds in a loop must reuse domains.
   One submitter at a time: the caller is runner 0, helpers take ranks
   1 .. domains-1, and jobs are handed over by bumping a generation
   counter under the pool mutex. *)
module Persistent = struct
  type t = {
    helpers : int;
    mu : Mutex.t;
    wake : Condition.t;  (** New generation posted, or shutdown. *)
    drained : Condition.t;  (** All participating helpers finished. *)
    mutable gen : int;
    mutable count : int;  (** Runners (incl. caller) in the current job. *)
    mutable job : int -> unit;
    mutable remaining : int;  (** Participating helpers still running. *)
    mutable first_error : exn option;
    mutable stop : bool;
    mutable domains : unit Domain.t list;
  }

  let helper t rank =
    let last = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.mu;
      while (not t.stop) && t.gen = !last do
        Condition.wait t.wake t.mu
      done;
      if t.stop then begin
        Mutex.unlock t.mu;
        running := false
      end
      else begin
        last := t.gen;
        let participates = rank < t.count in
        let f = t.job in
        Mutex.unlock t.mu;
        if participates then begin
          (try f rank
           with e ->
             Mutex.lock t.mu;
             if t.first_error = None then t.first_error <- Some e;
             Mutex.unlock t.mu);
          Mutex.lock t.mu;
          t.remaining <- t.remaining - 1;
          if t.remaining = 0 then Condition.broadcast t.drained;
          Mutex.unlock t.mu
        end
      end
    done

  let create ~domains =
    if domains < 1 then invalid_arg "Domain_pool.Persistent.create: need at least one runner";
    let t =
      {
        helpers = domains - 1;
        mu = Mutex.create ();
        wake = Condition.create ();
        drained = Condition.create ();
        gen = 0;
        count = 0;
        job = ignore;
        remaining = 0;
        first_error = None;
        stop = false;
        domains = [];
      }
    in
    t.domains <- List.init t.helpers (fun i -> Domain.spawn (fun () -> helper t (i + 1)));
    t

  let size t = t.helpers + 1

  let parallel t ~domains f =
    if domains < 1 then invalid_arg "Domain_pool.Persistent.parallel: need at least one runner";
    if domains > t.helpers + 1 then
      invalid_arg "Domain_pool.Persistent.parallel: pool too small";
    if domains = 1 then f 0
    else begin
      Mutex.lock t.mu;
      if t.stop then begin
        Mutex.unlock t.mu;
        invalid_arg "Domain_pool.Persistent.parallel: pool is shut down"
      end;
      t.gen <- t.gen + 1;
      t.count <- domains;
      t.job <- f;
      t.remaining <- domains - 1;
      t.first_error <- None;
      Condition.broadcast t.wake;
      Mutex.unlock t.mu;
      let own = try Ok (f 0) with e -> Error e in
      Mutex.lock t.mu;
      while t.remaining > 0 do
        Condition.wait t.drained t.mu
      done;
      let helper_error = t.first_error in
      t.first_error <- None;
      Mutex.unlock t.mu;
      match (own, helper_error) with
      | Error e, _ -> raise e
      | Ok (), Some e -> raise e
      | Ok (), None -> ()
    end

  let shutdown t =
    Mutex.lock t.mu;
    t.stop <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.mu;
    List.iter Domain.join t.domains;
    t.domains <- []
end

(* Long-running service domains (a network server's accept and worker
   loops): unlike [run]'s, the jobs are not expected to finish on their
   own — the owner flips its own stop flag, then [join]s.  The group only
   remembers the domains and surfaces the first exception at join time, so
   a crashed worker loop cannot vanish silently. *)
module Group = struct
  type t = { mutable domains : (exn option ref * unit Domain.t) list }

  let spawn ~count f =
    if count < 1 then invalid_arg "Domain_pool.Group.spawn: need at least one domain";
    let spawn_one i =
      let err = ref None in
      let d = Domain.spawn (fun () -> try f i with e -> err := Some e) in
      (err, d)
    in
    { domains = List.init count spawn_one }

  let join t =
    let ds = t.domains in
    t.domains <- [];
    List.iter (fun (_, d) -> Domain.join d) ds;
    List.iter (fun (err, _) -> match !err with Some e -> raise e | None -> ()) ds
end

let run ~domains f =
  if domains < 1 then invalid_arg "Domain_pool.run: need at least one domain";
  let arrived = Atomic.make 0 in
  let start () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done
  in
  let ds = Array.init domains (fun i -> Domain.spawn (fun () -> f ~start i)) in
  Array.map Domain.join ds
