module Database = Vnl_query.Database
module Buffer_pool = Vnl_storage.Buffer_pool
module Heap_file = Vnl_storage.Heap_file
module Sched = Vnl_util.Sched
module Domain_pool = Vnl_util.Domain_pool
module Obs = Vnl_obs.Obs

let log_src = Logs.Src.create "vnl.pipeline" ~doc:"pipelined maintenance rounds"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_rounds = Obs.Registry.counter "pipeline.rounds"

let m_stripes = Obs.Registry.counter "pipeline.stripes"

(* Load imbalance across a round's stripes: largest stripe's operation
   count over the mean.  1.0 is a perfectly even split; a heavy tail here
   means partition merging (shared keys or index footprints) is
   serializing the round. *)
let m_skew =
  Obs.Registry.histogram
    ~buckets:[| 1.0; 1.25; 1.5; 2.0; 3.0; 5.0; 10.0 |]
    "pipeline.partition_skew"

(* One relation's share of a stripe. *)
type part = {
  handle : Twovnl.handle;
  changes : Batch.change list;
  stats : Maintenance.stats;  (** The part's logical and physical counts. *)
  mutable runs : Batch.runs option;  (** Filled by the stripe's fold phase. *)
}

type stripe = { vn : int; parts : part list }

type phase = [ `Fold | `Apply | `Token ]

type plan = {
  on_phase : (phase -> stripe:int -> unit) option;
      (** Deterministic fault-injection hook: called at the start of every
          stripe phase; raising aborts the round exactly as a worker
          failure at that point would. *)
  owner : Twovnl.t;
  txn : Twovnl.Txn.m;
  stripes : stripe array;
  published : int Atomic.t;
  failure : exn option Atomic.t;
  mu : Mutex.t;
  progress : Condition.t;
      (** Broadcast (under [mu]) whenever [published] or [failure]
          advances, so waiting workers park on the OS instead of
          spinning a core the working stripe needs. *)
}

type report = {
  stripes : int;
  base_vn : int;
}

let plan ?on_phase t ~workers per_table =
  if workers < 1 then invalid_arg "Pipeline.plan: workers must be >= 1";
  Obs.with_span "pipeline.plan" @@ fun () ->
  let handles = List.map (fun (name, changes) -> (Twovnl.handle_exn t name, changes)) per_table in
  (* nVNL sizing (§5): a round of c stripes keeps c VNs outstanding, and
     only n >= c + 1 lets a session opened at round begin stay valid to
     round end — so the stripe count is capped at min(workers, n - 1)
     rather than silently expiring every reader each round. *)
  let cap = max 1 (min workers (Twovnl.min_n t - 1)) in
  let parted =
    Obs.with_span "pipeline.partition" (fun () ->
        List.map
          (fun (h, changes) ->
            (h, Sched_batch.partition (Twovnl.ext h) (Twovnl.table h) ~max_parts:cap changes))
          handles)
  in
  let count = List.fold_left (fun acc (_, ps) -> max acc (List.length ps)) 1 parted in
  let total_ops =
    List.fold_left
      (fun acc (_, ps) ->
        List.fold_left (fun a p -> a + p.Sched_batch.op_count) acc ps)
      0 parted
  in
  (* Gated as a whole: with observability off a round neither walks the
     stripes for their skew nor takes the histogram's mutex. *)
  if !Obs.enabled && total_ops > 0 then begin
    let stripe_ops i =
      List.fold_left
        (fun acc (_, ps) ->
          match List.nth_opt ps i with Some p -> acc + p.Sched_batch.op_count | None -> acc)
        0 parted
    in
    let heaviest = ref 0 in
    for i = 0 to count - 1 do
      heaviest := max !heaviest (stripe_ops i)
    done;
    Obs.Histogram.observe m_skew
      (float_of_int (!heaviest * count) /. float_of_int total_ops)
  end;
  Obs.Counter.record m_rounds 1;
  Obs.Counter.record m_stripes count;
  let db = Twovnl.database t in
  let txn = Twovnl.Txn.begin_ ~count t in
  (* §7 durability point 1 (see {!Recovery.run_maintenance}): the raised
     flag, every other dirty frame and, if it changed since the last save,
     the catalog reach disk before any worker writes a tuple. *)
  (try Obs.with_span "maintenance.flag" (fun () -> Database.save db)
   with e ->
     Recovery.abort_on_failure db txn ~context:"the flag save" e;
     raise e);
  (* Nothing is published yet, so [Txn.vn] is the first stripe's VN. *)
  let first_vn = Twovnl.Txn.vn txn in
  let stripes =
    Array.init count (fun i ->
        let parts =
          List.filter_map
            (fun (handle, ps) ->
              Option.map
                (fun p ->
                  {
                    handle;
                    changes = p.Sched_batch.changes;
                    stats = Maintenance.fresh_stats ();
                    runs = None;
                  })
                (List.nth_opt ps i))
            parted
        in
        { vn = first_vn + i; parts })
  in
  Log.info (fun m ->
      m "pipelined round planned: %d stripes, %d logical ops, VNs %d..%d" count total_ops
        first_vn (first_vn + count - 1));
  {
    on_phase;
    owner = t;
    txn;
    stripes;
    published = Atomic.make 0;
    failure = Atomic.make None;
    mu = Mutex.create ();
    progress = Condition.create ();
  }

let stripe_count (p : plan) = Array.length p.stripes

let stripe_keys (p : plan) =
  Array.to_list
    (Array.map
       (fun s ->
         ( s.vn,
           List.map
             (fun part ->
               ( Twovnl.handle_name part.handle,
                 List.map (fun (c : Batch.change) -> c.key) part.changes ))
             s.parts ))
       p.stripes)

let stats (p : plan) ~table =
  let sum = Maintenance.fresh_stats () in
  Array.iter
    (fun s ->
      List.iter
        (fun part ->
          if Twovnl.handle_name part.handle = table then
            Maintenance.add_stats ~into:sum part.stats)
        s.parts)
    p.stripes;
  sum

let failed (p : plan) = Option.is_some (Atomic.get p.failure)

let published (p : plan) = Atomic.get p.published

let enter_phase (p : plan) phase i =
  match p.on_phase with None -> () | Some f -> f phase ~stripe:i

(* Advance a progress atomic and wake every parked waiter.  The update
   happens under [mu] so a waiter cannot re-check its predicate between
   the update and the broadcast and then sleep through the wakeup. *)
let signal (p : plan) advance =
  Mutex.lock p.mu;
  advance ();
  Condition.broadcast p.progress;
  Mutex.unlock p.mu

let record_failure (p : plan) e =
  signal p (fun () -> ignore (Atomic.compare_and_set p.failure None (Some e)))

let pages_of rids = List.map (fun (r : Heap_file.rid) -> r.Heap_file.page) rids

(* One stripe's worker, from fold to publish.  The phases:

   1. fold: group each partition's changes by the page of their probed
      rid ({!Batch.group}).  No page is read.
   2. apply: one page run per page holding a present key, concurrently
      across workers ({!Batch.apply_in_place}): each record is classified
      on its bytes and written in the same run.  Safe because partitions
      are key-disjoint (no shared rid, and each record's classification
      reads only its own cells, so it sees the pre-round state however the
      round interleaves — which is also why no stripe waits for another
      before writing), in-place writes never move slots or touch the
      unique index, and the partitioner merged any two partitions whose
      writes share a secondary index.
   3. token (strictly in stripe order): the fresh inserts as insert runs
      (slot and unique-index mutations — serialized, so slot assignment is
      byte-identical to the serial reference), then the stripe's §7
      durability ladder: targeted flush of every page it wrote, catalog
      save (a write only when a heap grew), VN publish, flush of the
      Version page. *)
let fold_stripe (p : plan) i =
  let stripe = p.stripes.(i) in
  enter_phase p `Fold i;
  Obs.with_span "maintenance.apply" (fun () ->
      List.iter (fun part -> part.runs <- Some (Batch.group part.changes)) stripe.parts)

let runs_of part = match part.runs with Some r -> r | None -> assert false

let apply_stripe (p : plan) i =
  let stripe = p.stripes.(i) in
  enter_phase p `Apply i;
  Obs.with_span "maintenance.apply" (fun () ->
      List.concat_map
        (fun part ->
          let h = part.handle in
          Batch.apply_in_place ~row2:false ~stats:part.stats ~pad:(Twovnl.pad_op h)
            ~on_over_delete:(Twovnl.Txn.record_over_delete p.txn)
            (Twovnl.ext h) (Twovnl.table h) ~vn:stripe.vn (runs_of part))
        stripe.parts)

let token_stripe (p : plan) i update_pages =
  let stripe = p.stripes.(i) in
  enter_phase p `Token i;
  let t = p.owner in
  let db = Twovnl.database t in
  let pool = Database.pool db in
  Obs.with_span "pipeline.token" (fun () ->
      let insert_pages =
        Obs.with_span "maintenance.apply" (fun () ->
            List.concat_map
              (fun part ->
                let h = part.handle in
                pages_of
                  (Batch.apply_fresh ~stats:part.stats ~pad:(Twovnl.pad_op h) (Twovnl.ext h)
                     (Twovnl.table h) ~vn:stripe.vn (runs_of part)))
              stripe.parts)
      in
      (* Data pages durable before the catalog names any new ones, catalog
         durable before the publish — per stripe. *)
      Obs.with_span "maintenance.flush" (fun () ->
          (* [flush_pages] sorts and dedupes the page list itself. *)
          Buffer_pool.flush_pages pool (update_pages @ insert_pages);
          (* Writes the catalog only if a heap grew since the last save. *)
          Database.save ~mode:`Catalog_only db);
      Recovery.publish t p.txn;
      signal p (fun () -> Atomic.incr p.published))

let worker (p : plan) i =
  (* Under the deterministic scheduler every stripe is a fiber on one
     domain: waiting must stay a pure [Sched.yield] spin (blocking on a
     condition would deadlock the only domain).  On real domains a brief
     spin catches the common hand-off, then the worker parks on
     [progress] — with more worker domains than cores (always, on the
     single-core CI box) a spinner would burn the timeslice the working
     stripe needs, and a poll-sleep pays its wakeup quantum at every
     phase boundary. *)
  let await ~until =
    if Sched.driving () then
      while not (until ()) && not (failed p) do
        Sched.yield ()
      done
    else begin
      let spins = ref 0 in
      while not (until ()) && not (failed p) && !spins < 200 do
        incr spins;
        Domain.cpu_relax ()
      done;
      if not (until ()) && not (failed p) then begin
        Mutex.lock p.mu;
        while not (until ()) && not (failed p) do
          Condition.wait p.progress p.mu
        done;
        Mutex.unlock p.mu
      end
    end
  in
  try
    fold_stripe p i;
    let update_pages = apply_stripe p i in
    Obs.with_span "pipeline.publish_wait" (fun () ->
        await ~until:(fun () -> Atomic.get p.published >= i));
    if not (failed p) then token_stripe p i update_pages
  with e -> record_failure p e

(* Canonical in-order schedule of the same task system, on the calling
   domain alone: each stripe folds, applies and runs its token section in
   stripe order.  Byte-identical writes and the identical publish order —
   it is one of the schedules the token protocol admits — without any
   cross-domain coordination.  [run] picks it when the round has more
   stripes than the host has cores: with more worker domains than cores
   the domain path only adds handoff latency and stop-the-world pauses. *)
let run_sequential (p : plan) =
  try
    Array.iteri
      (fun i _ ->
        if not (failed p) then begin
          fold_stripe p i;
          token_stripe p i (apply_stripe p i)
        end)
      p.stripes
  with e -> record_failure p e

let finish (p : plan) =
  match Atomic.get p.failure with
  | Some e ->
    (* The abort reverts the unpublished suffix; the published prefix is
       exactly what a shorter round would have committed. *)
    Recovery.abort_on_failure (Twovnl.database p.owner) p.txn ~context:"a worker failure" e;
    raise e
  | None ->
    if Atomic.get p.published <> Array.length p.stripes then
      failwith "Pipeline.finish: round incomplete without a recorded failure";
    { stripes = Array.length p.stripes; base_vn = p.stripes.(0).vn - 1 }

let tasks (p : plan) =
  Array.to_list
    (Array.mapi (fun i _ -> (Printf.sprintf "stripe-%d" i, fun () -> worker p i)) p.stripes)

(* Worker domains are reused across rounds: spawning and joining domains
   costs milliseconds per round — more than a round's useful work — so
   [run] draws on a process-wide pool, grown when a wider round appears.
   Only one round can be active at a time (maintenance is exclusive), so a
   single shared pool suffices; parked helpers never hold work and do not
   block process exit. *)
let pool_mu = Mutex.create ()

let pool : Domain_pool.Persistent.t option ref = ref None

let get_pool domains =
  Mutex.protect pool_mu (fun () ->
      match !pool with
      | Some q when Domain_pool.Persistent.size q >= domains -> q
      | prev ->
        (match prev with Some q -> Domain_pool.Persistent.shutdown q | None -> ());
        let q = Domain_pool.Persistent.create ~domains in
        pool := Some q;
        q)

let run (p : plan) =
  Obs.with_span "pipeline.round" @@ fun () ->
  (match Array.length p.stripes with
  | 1 ->
    (* A single stripe needs no second domain (and keeps the degenerate
       case on the calling domain, where the deterministic scheduler can
       see it). *)
    worker p 0
  | c when c > Domain.recommended_domain_count () -> run_sequential p
  | c -> Domain_pool.Persistent.parallel (get_pool c) ~domains:c (worker p));
  finish p
