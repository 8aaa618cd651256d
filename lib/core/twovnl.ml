module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Database = Vnl_query.Database
module Table = Vnl_query.Table
module Catalog = Vnl_query.Catalog
module Heap_file = Vnl_storage.Heap_file
module Epoch = Vnl_util.Epoch
module StrMap = Map.Make (String)
module IntMap = Map.Make (Int)

let log_src = Logs.Src.create "vnl.core" ~doc:"2VNL warehouse events"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Obs = Vnl_obs.Obs

(* 2VNL session and maintenance telemetry (default registry, gated). *)
let m_sessions_opened = Obs.Registry.counter "twovnl.sessions_opened"

let m_sessions_expired = Obs.Registry.counter "twovnl.sessions_expired"

let m_reader_queries = Obs.Registry.counter "twovnl.reader_queries"

let m_view_cache_hits = Obs.Registry.counter "twovnl.view_cache_hits"

let m_maintenance_commits = Obs.Registry.counter "twovnl.maintenance_commits"

let m_maintenance_aborts = Obs.Registry.counter "twovnl.maintenance_aborts"

let m_gc_reclaimed = Obs.Registry.counter "twovnl.gc_reclaimed"

let m_current_vn = Obs.Registry.gauge "twovnl.current_vn"

(* How far the GC horizon (minimum pinned session epoch) trails currentVN
   when garbage collection runs: 0 means reclamation is fully caught up,
   larger values mean long-lived sessions are holding history alive. *)
let m_epoch_lag = Obs.Registry.gauge "twovnl.epoch_lag"

(* The VN distribution: how far behind currentVN each reader query runs.
   A 2VNL warehouse keeps this in {0, 1}; nVNL widens the band. *)
let m_session_lag =
  Obs.Registry.histogram ~buckets:[| 0.0; 1.0; 2.0; 3.0; 4.0; 6.0; 8.0 |] "twovnl.session_vn_lag"

(* Versioned-catalog telemetry: the live generation index, committed
   evolutions, plan-cache entries invalidated per generation flip (the old
   generation's cache is left behind rather than cleared globally), the
   per-generation reader plan cache's hit/miss split and the entries its
   bound evicted, and generations retired by GC once no session can pin
   them. *)
let m_catalog_generation = Obs.Registry.gauge "twovnl.catalog_generation"

let m_evolutions = Obs.Registry.counter "twovnl.evolutions"

let m_plan_gen_invalidations = Obs.Registry.counter "twovnl.plan_gen_invalidations"

let m_reader_plan_hits = Obs.Registry.counter "twovnl.reader_plan_hits"

let m_reader_plan_misses = Obs.Registry.counter "twovnl.reader_plan_misses"

let m_reader_plan_evictions = Obs.Registry.counter "twovnl.reader_plan_evictions"

let m_generations_retired = Obs.Registry.counter "twovnl.generations_retired"

module Plan = Vnl_query.Plan

type handle = {
  name : string;
  ext : Schema_ext.t;
  table : Table.t;
  added : (Schema.attribute * Value.t) list;
      (** Columns appended by evolution (oldest first) with their defaults;
          short insert tuples from pre-evolution view templates are padded
          from the suffix of this list. *)
  decoded : Reader.cache;
      (** [table]'s decoded-record cache, shared by every session's
          extraction.  A new physical table gets a new handle and so a new
          cache. *)
}

(* Cached reader plans, keyed by statement shape ({!Vnl_sql.Shape}): the
   pre-rewrite SQL text with its WHERE literals as placeholders, which
   execution binds.  [generic] is the compiled §4.1 rewrite; [fast] — when
   the query matches the pattern {!Rewrite.reader_fast_path} recognizes —
   additionally holds a view plan over the base schema, executed against
   {!Reader.visible_relation}. *)
type reader_plan = {
  rewritten : Vnl_sql.Ast.select;
  fast : (handle * Plan.t) option;
  generic : Plan.t Atomic.t;
      (** Atomic so any reader domain can swap in a re-prepared plan after
          index DDL without a cache-wide lock. *)
}

(* A generation's reader plans: at most [reader_plan_bound] entries,
   [by_stamp] mapping each entry's insertion stamp to its key.  Immutable, so
   a hit is one atomic load and one map lookup; a miss publishes a new
   cache by CAS, evicting the oldest entry when full. *)
type plan_cache = {
  plans : reader_plan StrMap.t;
  by_stamp : string IntMap.t;
  size : int;
  stamp : int;  (** The next insertion stamp. *)
}

let reader_plan_bound = 256

let empty_cache = { plans = StrMap.empty; by_stamp = IntMap.empty; size = 0; stamp = 0 }

(* [c] with [entry] added under [key], and whether the bound evicted the
   oldest entry to make room. *)
let cache_add c key entry =
  let c =
    {
      plans = StrMap.add key entry c.plans;
      by_stamp = IntMap.add c.stamp key c.by_stamp;
      size = c.size + 1;
      stamp = c.stamp + 1;
    }
  in
  if c.size <= reader_plan_bound then (c, false)
  else
    let stamp, oldest = IntMap.min_binding c.by_stamp in
    ( {
        c with
        plans = StrMap.remove oldest c.plans;
        by_stamp = IntMap.remove stamp c.by_stamp;
        size = c.size - 1;
      },
      true )

(* One immutable catalog generation: the name registry frozen at a schema
   boundary, with its own reader plan cache.  [gen_vn] is the VN whose
   publication activated the generation — a session resolves against the
   newest generation with [gen_vn <= session_vn], so the session VN doubles
   as the catalog snapshot selector and the activation needs no lock:
   consing the generation before the Version publish is harmless, because
   no live session VN can select it until the publish lands. *)
type generation = {
  gen : int;
  gen_vn : int;
  registry : handle StrMap.t;
  order : string list;  (** Registration order, newest first. *)
  plans : plan_cache Atomic.t;
  plans_gen : int Atomic.t;
      (** Bumped by every invalidation; publishers that began compiling under
          an older registry state do not cache their (possibly stale)
          entry. *)
}

(* Both reader-facing shared structures are lock-free.

   Sessions: a session is an epoch pin (see {!Vnl_util.Epoch}) — beginning
   one CASes the session's VN into a slot of the epoch domain, ending one
   releases the slot, and the GC horizon is a fold over the slots.

   Catalog: an immutable generation list behind an [Atomic], newest first
   and never empty.  Readers take one atomic load and walk to their
   generation; evolution commits cons a new head; GC retires an
   unreachable suffix by CAS. *)
type t = {
  db : Database.t;
  version : Version_state.t;
  generations : generation list Atomic.t;
  epochs : Epoch.t;
      (** Session pins; the epoch is the warehouse VN.  Advanced at every
          refresh commit. *)
  next_session : int Atomic.t;
  last_gc_horizon : int Atomic.t;
      (** Horizon of the last completed collection.  Garbage is only ever
          created at the then-current VN, so until the horizon moves past
          it there is nothing new to reclaim and the scan is elided. *)
}

exception Expired of { session_vn : int; current_vn : int }

let fresh_generation ~gen ~gen_vn ~registry ~order =
  { gen; gen_vn; registry; order; plans = Atomic.make empty_cache; plans_gen = Atomic.make 0 }

let make db version =
  {
    db;
    version;
    generations =
      Atomic.make [ fresh_generation ~gen:0 ~gen_vn:0 ~registry:StrMap.empty ~order:[] ];
    epochs = Epoch.create ~initial:(Version_state.current_vn version) ();
    next_session = Atomic.make 1;
    last_gc_horizon = Atomic.make min_int;
  }

let init db = make db (Version_state.install db)

let attach db = make db (Version_state.attach db)

let database t = t.db

let version_state t = t.version

let current_vn t = Version_state.current_vn t.version

let head t = List.hd (Atomic.get t.generations)

(* Newest generation the session VN may read under.  Retirement guarantees
   every generation a live session could select is still in the list; the
   oldest retained one backstops stray probes below the horizon. *)
let generation_for t vn =
  let rec walk = function
    | [] -> assert false
    | [ g ] -> g
    | g :: rest -> if g.gen_vn <= vn then g else walk rest
  in
  walk (Atomic.get t.generations)

let catalog_generation t = (head t).gen

let rec update_head t f =
  let gens = Atomic.get t.generations in
  match gens with
  | g :: rest ->
    if not (Atomic.compare_and_set t.generations gens (f g :: rest)) then update_head t f
  | [] -> assert false

(* Registration changes what the reader rewrite produces for queries
   naming this table, so cached reader plans must not survive it.  The
   generation bump happens first: a compile that started before this
   invalidation sees the changed generation and declines to publish. *)
let invalidate_plans g =
  Atomic.incr g.plans_gen;
  Atomic.set g.plans empty_cache

let reader_plan_count t = (Atomic.get (head t).plans).size

let register_handle t h =
  update_head t (fun g ->
      { g with registry = StrMap.add h.name h g.registry; order = h.name :: g.order });
  invalidate_plans (head t)

let register_table t ?n ~name schema =
  let ext = Schema_ext.extend ?n schema in
  let table = Database.create_table t.db name (Schema_ext.extended ext) in
  let h = { name; ext; table; added = []; decoded = Reader.create_cache () } in
  register_handle t h;
  h

let attach_table t ?n ~name base =
  let ext = Schema_ext.extend ?n base in
  let table = Database.table_exn t.db name in
  if not (Schema.equal (Table.schema table) (Schema_ext.extended ext)) then
    invalid_arg
      (Printf.sprintf "Twovnl.attach_table: stored schema of %S does not match the extension"
         name);
  let h = { name; ext; table; added = []; decoded = Reader.create_cache () } in
  register_handle t h;
  h

let gen_handle g name = StrMap.find_opt name g.registry

let gen_lookup g name = Option.map (fun h -> h.ext) (gen_handle g name)

let gen_resolve g name = Option.map (fun h -> h.table) (gen_handle g name)

let gen_handles g = List.rev_map (fun name -> StrMap.find name g.registry) g.order

let gen_min_n g =
  StrMap.fold (fun _ h acc -> min acc (Schema_ext.n h.ext)) g.registry max_int
  |> fun n -> if n = max_int then 2 else n

let min_n t = gen_min_n (head t)

let handle t name = gen_handle (head t) name

let handle_exn t name =
  match handle t name with
  | Some h -> h
  | None -> failwith (Printf.sprintf "Twovnl: table %S is not registered" name)

let handles t = gen_handles (head t)

let handle_name h = h.name

let ext h = h.ext

let table h = h.table

let lookup t name = gen_lookup (head t) name

(* Insert tuples built against a pre-evolution base schema (a view template
   frozen before an [add_column]) are short by a suffix of the added
   columns; pad them with the declared defaults.  Anything else passes
   through untouched — added columns append strictly at the end, so
   existing positions (update assignments, delete keys) stay valid. *)
let pad_values h values =
  match h.added with
  | [] -> values
  | added ->
    let missing = Schema_ext.base_arity h.ext - List.length values in
    if missing > 0 && missing <= List.length added then begin
      let rec drop k xs = if k <= 0 then xs else match xs with [] -> [] | _ :: tl -> drop (k - 1) tl in
      values @ List.map snd (drop (List.length added - missing) added)
    end
    else values

let pad_op h op =
  match op with
  | Batch.Insert tup when h.added <> [] && Tuple.arity tup < Schema_ext.base_arity h.ext ->
    Batch.Insert (Tuple.make (Schema_ext.base h.ext) (pad_values h (Tuple.values tup)))
  | op -> op

let pad_ops h ops = match h.added with [] -> ops | _ -> List.map (pad_op h) ops

let load_initial t name tuples =
  let h = handle_exn t name in
  let vn = current_vn t in
  List.iter
    (fun base ->
      let base =
        if Tuple.arity base < Schema_ext.base_arity h.ext then
          Tuple.make (Schema_ext.base h.ext) (pad_values h (Tuple.values base))
        else base
      in
      ignore (Table.insert h.table (Schema_ext.fresh_insert h.ext ~vn base)))
    tuples

let min_session_vn t =
  (* The epoch fold already bounds the result by its own published epoch;
     taking the min with currentVN keeps the horizon correct even if the
     epoch domain briefly trails the version state (advance happens after
     commit). *)
  min (current_vn t) (Epoch.min_pinned t.epochs)

let generation_meta g =
  {
    Catalog.g_index = g.gen;
    g_vn = g.gen_vn;
    g_members =
      List.rev_map
        (fun name ->
          let h = StrMap.find name g.registry in
          {
            Catalog.m_logical = name;
            m_storage = Table.name h.table;
            m_n = Schema_ext.n h.ext;
            m_base_arity = Schema_ext.base_arity h.ext;
            m_added = List.map (fun (a, v) -> (a.Schema.name, v)) h.added;
          })
        g.order;
  }

(* Retire generations no live session can select: [generation_for horizon]
   and everything newer stays, the rest goes — along with any storage table
   referenced only by the dropped suffix (the frozen pre-evolution
   copies).  Their disk pages are not recycled; the leak is bounded by the
   number of evolutions and documented in DESIGN.md §15. *)
let retire_generations t ~horizon =
  let gens = Atomic.get t.generations in
  match gens with
  | [] | [ _ ] -> 0
  | _ ->
    let rec split kept = function
      | [] -> (List.rev kept, [])
      | g :: rest ->
        if g.gen_vn <= horizon then (List.rev (g :: kept), rest) else split (g :: kept) rest
    in
    let kept, dropped = split [] gens in
    if dropped = [] then 0
    else if Atomic.compare_and_set t.generations gens kept then begin
      let live_storage =
        List.concat_map
          (fun g -> List.map (fun name -> Table.name (StrMap.find name g.registry).table) g.order)
          kept
      in
      List.iter
        (fun g ->
          List.iter
            (fun name ->
              let storage = Table.name (StrMap.find name g.registry).table in
              if (not (List.mem storage live_storage)) && Database.table t.db storage <> None
              then Database.drop_table t.db storage)
            g.order)
        dropped;
      Database.set_generations_meta t.db (List.map generation_meta kept);
      Obs.Counter.record m_generations_retired (List.length dropped);
      Log.info (fun m ->
          m "retired %d catalog generation(s) below horizon %d" (List.length dropped) horizon);
      List.length dropped
    end
    else 0 (* raced an evolution commit; the next collection retries *)

let collect_garbage t =
  let c = current_vn t in
  Epoch.advance t.epochs c;
  let horizon = min_session_vn t in
  Obs.Gauge.record m_epoch_lag (c - horizon);
  ignore (retire_generations t ~horizon);
  (* Garbage is stamped with the VN current at its creation, which is at
     or above the horizon of the previous collection — so if the horizon
     has not advanced since then, the full-table scan cannot find
     anything and is skipped.  (Under continuous refresh with pinned
     readers this elides most collections.) *)
  if horizon <= Atomic.get t.last_gc_horizon then 0
  else begin
    Atomic.set t.last_gc_horizon horizon;
    let reclaimed =
      Obs.with_span "gc.collect" (fun () ->
          List.fold_left
            (fun acc h -> acc + Gc.collect h.ext h.table ~min_session_vn:horizon)
            0 (handles t))
    in
    Obs.Counter.record m_gc_reclaimed reclaimed;
    Log.debug (fun m -> m "gc at horizon %d reclaimed %d tuples" horizon reclaimed);
    reclaimed
  end

(* Rebuild the generation list of a reopened multi-generation catalog.  The
   durable Version page decides activation: a staged generation whose
   [g_vn] exceeds the stored currentVN died before its publish — its
   private tables (the half-copied replacements, new views) are dropped and
   any freeze-rename it performed is undone, so the surviving head's
   members sit back under their logical names.  Runs before {!recover}:
   the subsequent tuple-level rollback walks the restored head
   generation. *)
let attach_generations t =
  let metas = Database.generations_meta t.db in
  if metas <> [] then begin
    let current = current_vn t in
    let metas =
      List.sort (fun a b -> compare b.Catalog.g_index a.Catalog.g_index) metas
    in
    let live, dead = List.partition (fun g -> g.Catalog.g_vn <= current) metas in
    match live with
    | [] -> raise (Catalog.Corrupt "no catalog generation at or below the published VN")
    | head_meta :: older ->
      let live_storage =
        List.concat_map (fun g -> List.map (fun m -> m.Catalog.m_storage) g.Catalog.g_members) live
      in
      List.iter
        (fun g ->
          List.iter
            (fun mb ->
              let s = mb.Catalog.m_storage in
              if (not (List.mem s live_storage)) && Database.table t.db s <> None then
                Database.drop_table t.db s)
            g.Catalog.g_members)
        dead;
      let head_meta =
        {
          head_meta with
          Catalog.g_members =
            List.map
              (fun mb ->
                if not (String.equal mb.Catalog.m_storage mb.Catalog.m_logical) then begin
                  Database.rename_table t.db mb.Catalog.m_storage mb.Catalog.m_logical;
                  { mb with Catalog.m_storage = mb.Catalog.m_logical }
                end
                else mb)
              head_meta.Catalog.g_members;
        }
      in
      let live = head_meta :: older in
      Database.set_generations_meta t.db live;
      let caches = Hashtbl.create 8 in
      let build gm =
        let registry = ref StrMap.empty and order = ref [] in
        List.iter
          (fun mb ->
            let table = Database.table_exn t.db mb.Catalog.m_storage in
            let ext =
              Schema_ext.of_extended ~n:mb.Catalog.m_n ~base_arity:mb.Catalog.m_base_arity
                (Table.schema table)
            in
            let base = Schema_ext.base ext in
            let added =
              List.map
                (fun (aname, v) ->
                  match Schema.index_of_opt base aname with
                  | Some j -> (Schema.attribute base j, v)
                  | None ->
                    raise
                      (Catalog.Corrupt
                         (Printf.sprintf "generation %d: added column %S not in schema of %S"
                            gm.Catalog.g_index aname mb.Catalog.m_logical)))
                mb.Catalog.m_added
            in
            (* A table every live generation shares gets one cache. *)
            let decoded =
              match Hashtbl.find_opt caches mb.Catalog.m_storage with
              | Some c -> c
              | None ->
                let c = Reader.create_cache () in
                Hashtbl.add caches mb.Catalog.m_storage c;
                c
            in
            let h = { name = mb.Catalog.m_logical; ext; table; added; decoded } in
            registry := StrMap.add h.name h !registry;
            order := h.name :: !order)
          gm.Catalog.g_members;
        fresh_generation ~gen:gm.Catalog.g_index ~gen_vn:gm.Catalog.g_vn ~registry:!registry
          ~order:!order
      in
      let gens = List.map build live in
      Atomic.set t.generations gens;
      Obs.Gauge.record m_catalog_generation (List.hd gens).gen;
      Log.info (fun m ->
          m "attached %d catalog generation(s), head gen %d at VN %d (%d staged dropped)"
            (List.length gens) (List.hd gens).gen (List.hd gens).gen_vn (List.length dead))
  end

(* The §7 revert, the one shared by {!recover} and [Txn.abort]: every
   touched tuple carries its pre-update version, so reverting every tuple
   stamped above the last {e published} VN — one transaction's
   currentVN + 1, or every unpublished stripe of a multi-VN one — restores
   the pre-state without any log.  Then no VN is outstanding. *)
let revert_unpublished t ~over_deleted =
  let current = Version_state.current_vn t.version in
  let reverted =
    List.fold_left
      (fun acc h -> acc + Rollback.revert_above h.ext h.table ~current ~over_deleted)
      0 (handles t)
  in
  Version_state.abort_maintenance t.version;
  (current, reverted)

(* §7 no-log crash recovery: the repair is exactly an abort's.  Without
   the lost in-memory over-delete record, every insert is taken for a fresh
   one (see DESIGN.md §6). *)
let recover t =
  if not (Version_state.maintenance_active t.version) then 0
  else begin
    let current, reverted = revert_unpublished t ~over_deleted:(fun _ -> false) in
    Log.info (fun m ->
        m "crash recovery: reverted %d tuples of work past published VN %d" reverted current);
    reverted
  end

module Session = struct
  type s = {
    id : int;
    vn : int;
    slot : Epoch.slot;
    closed : bool Atomic.t;
    views : (string * Tuple.t list) list Atomic.t;
        (** Per-table memo of the session's visible relation.  A session's
            view is immutable for its whole lifetime — pre-states survive
            until the maintenance transaction that also expires the session
            (the 2VNL guarantee the [gc_preserves_reader_view] test pins
            down) — so the first extraction can serve every later read.
            Concurrent fills race benignly: both compute the same relation
            and the last published list wins. *)
  }

  (* Lock-free open: pin the warehouse epoch.  [Epoch.pin]'s
     store-then-revalidate protocol guarantees the pinned VN is the
     currentVN at some instant after the pin became visible to the GC
     horizon fold — a refresh that commits mid-open either bumps the
     session onto the new VN or is ordered after the pin, so GC can never
     reclaim a version this session is entitled to read. *)
  let begin_ t =
    let slot, vn = Epoch.pin ~current:(fun () -> current_vn t) t.epochs in
    let id = Atomic.fetch_and_add t.next_session 1 in
    Obs.Counter.record m_sessions_opened 1;
    Log.debug (fun m -> m "session %d begins at version %d" id vn);
    { id; vn; slot; closed = Atomic.make false; views = Atomic.make [] }

  let vn s = s.vn

  let id s = s.id

  (* The catalog generation pinned by the session VN: name resolution,
     schema lookup, and the reader plan cache all go through it, so a
     session spanning an evolution commit keeps its old schema view while
     later sessions resolve the new one. *)
  let session_gen t s = generation_for t s.vn

  let generation t s = (session_gen t s).gen

  (* Generalized §4.1 check: a session is valid while it has overlapped at
     most n - 1 maintenance transactions, where n is the smallest version
     count among the tables of {e its} catalog generation (2 when none are
     registered).  For pure 2VNL this is exactly the paper's condition, and
     agrees with [Rewrite.session_valid].

     One atomic read of (currentVN, outstanding): under a pipelined round
     [outstanding] counts the begun-but-unpublished VNs, so the §4.1 bound
     charges the session for every version slot the round may consume.
     [c - s.vn + outstanding] is constant across a round's publishes (each
     publish increments c and decrements outstanding together), so a
     session valid at round begin stays valid to round end whenever
     n >= count + 1 — the nVNL sizing rule the pipeline enforces. *)
  let valid_for t s ~n =
    let c, outstanding = Version_state.read_outstanding t.version in
    c - s.vn + outstanding <= n - 1

  let is_valid t s = valid_for t s ~n:(gen_min_n (session_gen t s))

  (* The push-notification probe: same arithmetic as [valid_for], but the
     caller learns how close the session is to expiry instead of a bare
     bool, and an expired session yields the exception payload without
     raising (the network server turns it into a wire frame). *)
  let validity t s =
    let n = gen_min_n (session_gen t s) in
    let c, outstanding = Version_state.read_outstanding t.version in
    let slack = n - 1 - (c - s.vn + outstanding) in
    if slack >= 0 then `Valid slack else `Expired (s.vn, c)

  (* [exchange] makes a double-end harmless: the slot is released exactly
     once, never yanking a pin a later session acquired in the same slot. *)
  let end_ _t s = if not (Atomic.exchange s.closed true) then Epoch.unpin s.slot

  let expired t s =
    Obs.Counter.record m_sessions_expired 1;
    Log.info (fun m ->
        m "session %d expired (version %d, currentVN %d)" s.id s.vn (current_vn t));
    Expired { session_vn = s.vn; current_vn = current_vn t }

  (* Returns the current VN so [query] can compute the session's lag
     without a second version-state read (each read is a real buffer-pool
     access, so an extra one would both slow the hot path and perturb the
     I/O counters the differential tests hold identical). *)
  let check_valid t s =
    let n = gen_min_n (session_gen t s) in
    let c, outstanding = Version_state.read_outstanding t.version in
    if c - s.vn + outstanding > n - 1 then raise (expired t s);
    c

  (* Compile-once reader sessions: the first execution of a statement
     shape parses, rewrites, and compiles it; re-executions, whatever their
     WHERE literals, run cached closures.  The cache lives on the session's
     catalog generation: an evolution leaves the old generation's entries
     serving its pinned sessions and starts the new generation empty, so
     plans compiled under generation g miss (never stale-hit) under g+1.
     The generic plan is revalidated each time against the generation's
     own registry ([Plan.valid ~resolve]) — resolution must not fall
     through to the database catalog, where a staging rename may have
     rebound the logical name to a half-copied replacement table. *)
  let prepare_entry t g parse =
    Obs.with_span "reader.prepare" @@ fun () ->
    let select = parse () in
    let rewritten = Rewrite.reader_select ~lookup:(gen_lookup g) select in
    let generic = Plan.prepare ~resolve:(gen_resolve g) t.db rewritten in
    let fast =
      if Plan.full_scan_only generic then
        match Rewrite.reader_fast_path ~lookup:(gen_lookup g) select with
        | Some (name, label) ->
          let h = StrMap.find name g.registry in
          (* The rewrite leaves bare items unaliased, so the generic
             plan's labels (e.g. "col0" for a CASE-translated column)
             are authoritative; the view plan reproduces them. *)
          Some
            ( h,
              Plan.prepare_view ~label ~columns:(Plan.columns generic)
                (Schema_ext.base h.ext) select )
        | None -> None
      else None
    in
    { rewritten; fast; generic = Atomic.make generic }

  let reader_plan_for t g ~key src =
    match StrMap.find_opt key (Atomic.get g.plans).plans with
    | Some entry ->
      Obs.Counter.record m_reader_plan_hits 1;
      let generic = Atomic.get entry.generic in
      let resolve = gen_resolve g in
      if not (Plan.valid ~resolve t.db generic) then
        (* Concurrent re-preparations are idempotent: each produces a
           valid plan for the current catalog and the last store wins. *)
        Atomic.set entry.generic (Plan.prepare ~resolve t.db entry.rewritten);
      entry
    | None ->
      Obs.Counter.record m_reader_plan_misses 1;
      let gen0 = Atomic.get g.plans_gen in
      let entry =
        prepare_entry t g (fun () ->
            (* A shape fails to parse only where its text does: parse the
               text to raise its own error, message and position. *)
            try Vnl_sql.Parser.parse_shape key
            with e ->
              ignore (Vnl_sql.Parser.parse_select src);
              raise e)
      in
      (* Publish by CAS into the immutable cache.  A racing compiler of the
         same shape loses and adopts the winner's entry; a racing
         invalidation (generation changed) means this entry may reflect a
         stale registry, so it is used once but not cached. *)
      let rec publish () =
        let cur = Atomic.get g.plans in
        match StrMap.find_opt key cur.plans with
        | Some winner -> winner
        | None ->
          if Atomic.get g.plans_gen <> gen0 then entry
          else
            let next, evicted = cache_add cur key entry in
            if Atomic.compare_and_set g.plans cur next then begin
              if evicted then Obs.Counter.record m_reader_plan_evictions 1;
              (* An invalidation that slipped between the generation check
                 and the CAS must still win: clear again on its behalf. *)
              if Atomic.get g.plans_gen <> gen0 then Atomic.set g.plans empty_cache;
              entry
            end
            else publish ()
      in
      publish ()

  (* Extract [h]'s visible relation for the session, memoized in the
     session (see the [views] field).  The validity check stays with the
     caller: an expired session must raise even when the answer is still
     sitting in its cache, or expiry would become unobservable. *)
  let visible t s h =
    match List.assoc_opt h.name (Atomic.get s.views) with
    | Some rows ->
      Obs.Counter.record m_view_cache_hits 1;
      rows
    | None ->
      let rows =
        try Reader.visible_relation ~cache:h.decoded h.ext ~session_vn:s.vn h.table
        with Reader.Session_expired _ -> raise (expired t s)
      in
      Atomic.set s.views ((h.name, rows) :: Atomic.get s.views);
      rows

  let query_body t s src params =
    let g = session_gen t s in
    let entry, params =
      match Vnl_sql.Shape.normalize src with
      | Some (key, literals) ->
        (reader_plan_for t g ~key src, match params with [] -> literals | _ -> literals @ params)
      | None ->
        (* A literal the lexer or parser rejects: parsing the text raises
           its error (a text that parsed would run uncached). *)
        Obs.Counter.record m_reader_plan_misses 1;
        (prepare_entry t g (fun () -> Vnl_sql.Parser.parse_select src), params)
    in
    let generic = Atomic.get entry.generic in
    let params = ("sessionVN", Value.Int s.vn) :: params in
    match entry.fast with
    | Some (h, vplan) when Plan.full_scan_only generic ->
      Plan.execute_view ~params vplan (visible t s h)
    | Some _ | None -> Plan.execute ~params generic

  let query ?(params = []) t s src =
    let cvn = check_valid t s in
    (* One enabled test for the whole statement: the disabled path is a
       branch and a direct call — no span closure, no histogram math. *)
    if not !Obs.enabled then query_body t s src params
    else begin
      Obs.Counter.add m_reader_queries 1;
      Obs.Histogram.observe m_session_lag (float_of_int (cvn - s.vn));
      Obs.with_span "reader.query" (fun () -> query_body t s src params)
    end

  let read_table t s name =
    let g = session_gen t s in
    match gen_handle g name with
    | None -> failwith (Printf.sprintf "Twovnl: table %S is not registered" name)
    | Some h ->
      if not (valid_for t s ~n:(Schema_ext.n h.ext)) then raise (expired t s);
      visible t s h
end

module Txn = struct
  (* Evolution staging: the pending generation under construction.  The
     registry/order start as the head generation's and are rewritten as
     DDL lands; [created] tracks logical names now bound to tables this
     transaction created (replacement copies and new views), [renamed] the
     freeze-renames to undo on abort.  Every DDL mutates the database
     catalog eagerly — the durability-point-2 save inside
     {!Recovery.run_maintenance} must serialize both generations — and the
     in-memory generation only activates at commit. *)
  type staged = {
    mutable s_registry : handle StrMap.t;
    mutable s_order : string list;
    mutable s_created : string list;
    mutable s_renamed : (string * string) list;
    s_prev_meta : Catalog.generation list;
  }

  type m = {
    owner : t;
    base_vn : int;
        (** currentVN at begin; the VNs are [base_vn + 1 .. base_vn + count]. *)
    count : int;
    mutable published : int;
    txn_stats : Maintenance.stats;
    over_mu : Mutex.t;
        (** Guards [over_deleted]: pipeline workers on different domains
            record over-delete re-inserts concurrently. *)
    over_deleted : (Heap_file.rid, unit) Hashtbl.t;
        (** Records this transaction re-inserted over a logical delete, by
            rid alone.  A rid names one record across the whole database:
            [Disk.alloc] never reuses a page and [Database.drop_table] frees
            none, so the rids of a staged replacement table never collide
            with those of the table it replaces. *)
    mutable finished : bool;
    mutable staged : staged option;
  }

  let begin_ ?(count = 1) t =
    let base_vn = Version_state.begin_round t.version ~count in
    Log.info (fun m ->
        m "maintenance transaction begins: VNs %d..%d" (base_vn + 1) (base_vn + count));
    {
      owner = t;
      base_vn;
      count;
      published = 0;
      txn_stats = Maintenance.fresh_stats ();
      over_mu = Mutex.create ();
      over_deleted = Hashtbl.create 16;
      finished = false;
      staged = None;
    }

  (* The next VN to publish, which the per-op entry points stamp: the
     transaction's only VN when [count = 1], its last once every VN is
     published. *)
  let vn m = m.base_vn + 1 + min m.published (m.count - 1)

  let stats m = m.txn_stats

  let check_live m = if m.finished then invalid_arg "Twovnl.Txn: transaction already finished"

  (* Name resolution inside the transaction: the staged registry once any
     DDL has landed (maintenance always reads the latest catalog, §3.3),
     the head generation otherwise. *)
  let txn_handle m name =
    match m.staged with
    | Some st -> StrMap.find_opt name st.s_registry
    | None -> handle m.owner name

  let txn_handle_exn m name =
    match txn_handle m name with
    | Some h -> h
    | None -> failwith (Printf.sprintf "Twovnl: table %S is not registered" name)

  let record_over_delete m rid =
    Mutex.protect m.over_mu (fun () -> Hashtbl.replace m.over_deleted rid ())

  let was_insert_over_delete m rid =
    Mutex.protect m.over_mu (fun () -> Hashtbl.mem m.over_deleted rid)

  let sql m src =
    check_live m;
    Rewrite.maintenance_sql ~stats:m.txn_stats ~on_over_delete:(record_over_delete m)
      ~was_insert_over_delete:(was_insert_over_delete m) m.owner.db
      ~lookup:(fun name -> Option.map (fun h -> h.ext) (txn_handle m name))
      ~vn:(vn m) src

  let insert m ~table:name values =
    check_live m;
    let h = txn_handle_exn m name in
    let base = Tuple.make (Schema_ext.base h.ext) (pad_values h values) in
    ignore
      (Maintenance.apply_insert ~stats:m.txn_stats ~on_over_delete:(record_over_delete m) h.ext
         h.table ~vn:(vn m) base)

  (* Liveness is slot 1's operation, read on the record's bytes. *)
  let live_by_key h key =
    match Table.read_by_key h.table key (Maintenance.record_stamp h.ext) with
    | Some (rid, Some (_, (Op.Insert | Op.Update))) -> Some rid
    | Some (_, (Some (_, Op.Delete) | None)) | None -> None

  let update_by_key m ~table:name ~key ~set =
    check_live m;
    let h = txn_handle_exn m name in
    match live_by_key h key with
    | None -> false
    | Some rid ->
      let base = Schema_ext.base h.ext in
      let assignments = List.map (fun (col, v) -> (Schema.index_of base col, v)) set in
      Maintenance.apply_update ~stats:m.txn_stats h.ext h.table ~vn:(vn m) rid assignments;
      true

  let delete_by_key m ~table:name ~key =
    check_live m;
    let h = txn_handle_exn m name in
    match live_by_key h key with
    | None -> false
    | Some rid ->
      Maintenance.apply_delete ~stats:m.txn_stats
        ~was_insert_over_delete:(was_insert_over_delete m) h.ext h.table ~vn:(vn m) rid;
      true

  (* The batched maintenance path: same Tables 2-4 transitions as the
     per-op entry points above, run by the refresh's executor (see
     {!Batch}).  Over-delete bookkeeping flows both ways: re-inserts
     recorded by earlier statements of this transaction govern the Table 4
     row 2 correction inside the batch, and over-deletes the batch performs
     are recorded for no-log rollback. *)
  let apply_batch m ~table:name ops =
    check_live m;
    let h = txn_handle_exn m name in
    Batch.apply ~stats:m.txn_stats ~on_over_delete:(record_over_delete m)
      ~was_insert_over_delete:(was_insert_over_delete m) h.ext h.table ~vn:(vn m) (pad_ops h ops)

  let apply_changes m ~table:name plan =
    check_live m;
    let h = txn_handle_exn m name in
    let st = Maintenance.fresh_stats () in
    Batch.run ~stats:st ~pad:(pad_op h) ~on_over_delete:(record_over_delete m)
      ~was_insert_over_delete:(was_insert_over_delete m) h.ext h.table ~vn:(vn m)
      (Batch.group (plan h.table));
    Maintenance.add_stats ~into:m.txn_stats st;
    st

  (* ---------- online schema evolution ---------- *)

  (* DDL needs the transaction to own exactly one VN: the staged generation
     activates with it. *)
  let ensure_staged m =
    match m.staged with
    | Some st -> st
    | None ->
      if m.count > 1 then invalid_arg "Twovnl.Txn: DDL needs a transaction of one VN";
      let g = head m.owner in
      let st =
        {
          s_registry = g.registry;
          s_order = g.order;
          s_created = [];
          s_renamed = [];
          s_prev_meta = Database.generations_meta m.owner.db;
        }
      in
      m.staged <- Some st;
      st

  (* Mirror the staged catalog into the database's generation metadata
     after every DDL, so the durability-point-2 save inside the
     run_maintenance ladder serializes the pending generation alongside
     the retained ones.  Activation stays with the Version page: a reopen
     whose stored currentVN is below the pending [g_vn] discards it. *)
  let sync_meta m st =
    let t = m.owner in
    let pending =
      generation_meta
        (fresh_generation ~gen:((head t).gen + 1) ~gen_vn:(vn m) ~registry:st.s_registry
           ~order:st.s_order)
    in
    let retained = List.map generation_meta (Atomic.get t.generations) in
    Database.set_generations_meta t.db (pending :: retained)

  (* Replace [name]'s table with a staged copy under [new_ext]: build the
     replacement under a scratch name — its indexes recreated, the
     logically-live records copied with version stamps, operations, and
     pre-update cells carried over by name and added columns filled from
     their defaults — then park the old table under a frozen alias (it
     keeps serving every generation up to the head) and move the
     replacement under the logical name.  Logically-deleted records are
     not copied: any session entitled to resurrect one pins a VN below the
     pending generation's and therefore reads the frozen table.  A table
     already replaced earlier in this same transaction is copied again
     from its private staged copy, which is then dropped.  A rejected
     index or copy drops the scratch table before re-raising, so the
     staged catalog stays exactly what {!abort} knows how to undo. *)
  let stage_replace m st ~name ~(old_h : handle) ~new_ext ~added ~extra_index =
    let t = m.owner in
    let scratch = Printf.sprintf "%s#stage" name in
    let table = Database.create_table t.db scratch (Schema_ext.extended new_ext) in
    (try
       List.iter
         (fun (iname, attrs) -> Table.create_index table ~name:iname attrs)
         (Table.indexes old_h.table);
       (match extra_index with
       | Some (iname, attrs) -> Table.create_index table ~name:iname attrs
       | None -> ());
       let defaults = List.map (fun (a, v) -> (a.Schema.name, v)) added in
       let w = Schema_ext.widening ~from_:old_h.ext ~to_:new_ext ~defaults in
       let rows = ref [] in
       Heap_file.iter_tuples (Table.heap old_h.table) (fun tuple ->
           if Maintenance.is_logically_live old_h.ext tuple then
             rows := Schema_ext.widen w tuple :: !rows);
       ignore (Table.insert_many ~check:false table (Array.of_list (List.rev !rows)))
     with e ->
       Database.drop_table t.db scratch;
       raise e);
    if List.mem name st.s_created then Database.drop_table t.db name
    else begin
      let frozen = Printf.sprintf "%s@g%d" name (head t).gen in
      Database.rename_table t.db name frozen;
      st.s_renamed <- (name, frozen) :: st.s_renamed;
      st.s_created <- name :: st.s_created
    end;
    Database.rename_table t.db scratch name;
    let h = { name; ext = new_ext; table; added; decoded = Reader.create_cache () } in
    st.s_registry <- StrMap.add name h st.s_registry;
    sync_meta m st;
    h

  let add_column m ~table:name attr ~default =
    check_live m;
    Catalog.check_name ~what:"attribute" attr.Schema.name;
    if attr.Schema.key then
      invalid_arg "Twovnl.Txn.add_column: cannot add a key column";
    if not (Value.matches attr.Schema.dtype default) then
      invalid_arg "Twovnl.Txn.add_column: default does not match the column dtype";
    let st = ensure_staged m in
    let old_h =
      match StrMap.find_opt name st.s_registry with
      | Some h -> h
      | None -> failwith (Printf.sprintf "Twovnl: table %S is not registered" name)
    in
    let new_base = Schema.extend_with (Schema_ext.base old_h.ext) attr in
    let new_ext = Schema_ext.extend ~n:(Schema_ext.n old_h.ext) new_base in
    ignore
      (stage_replace m st ~name ~old_h ~new_ext
         ~added:(old_h.added @ [ (attr, default) ])
         ~extra_index:None)

  let add_table m ?n ~name schema =
    check_live m;
    let st = ensure_staged m in
    if StrMap.mem name st.s_registry then
      invalid_arg (Printf.sprintf "Twovnl.Txn.add_table: %S already registered" name);
    let ext = Schema_ext.extend ?n schema in
    let table = Database.create_table m.owner.db name (Schema_ext.extended ext) in
    let h = { name; ext; table; added = []; decoded = Reader.create_cache () } in
    st.s_registry <- StrMap.add name h st.s_registry;
    st.s_order <- name :: st.s_order;
    st.s_created <- name :: st.s_created;
    sync_meta m st

  let add_index m ~table:name ~index attrs =
    check_live m;
    let st = ensure_staged m in
    let old_h =
      match StrMap.find_opt name st.s_registry with
      | Some h -> h
      | None -> failwith (Printf.sprintf "Twovnl: table %S is not registered" name)
    in
    if List.mem name st.s_created then begin
      (* The staged table is already this transaction's private copy: the
         index can build in place, invisibly to every reader. *)
      Table.create_index old_h.table ~name:index attrs;
      sync_meta m st
    end
    else
      (* Index the copy, not the live table: a crash between the data
         flush and the publish must reopen to exactly the pre-evolution
         catalog, which an in-place index on a shared table would
         violate. *)
      ignore
        (stage_replace m st ~name ~old_h ~new_ext:old_h.ext ~added:old_h.added
           ~extra_index:(Some (index, attrs)))

  (* Activate the pending generation before the Version publish: its
     [gen_vn] exceeds every live session VN until the publish lands, so
     early visibility is harmless, while the reverse order would let a
     session pin the new VN and still resolve the old head. *)
  let rec activate t st ~vn =
    let gens = Atomic.get t.generations in
    let hd = List.hd gens in
    let g =
      fresh_generation ~gen:(hd.gen + 1) ~gen_vn:vn ~registry:st.s_registry ~order:st.s_order
    in
    if not (Atomic.compare_and_set t.generations gens (g :: gens)) then activate t st ~vn
    else begin
      Obs.Counter.record m_evolutions 1;
      Obs.Counter.record m_plan_gen_invalidations (Atomic.get hd.plans).size;
      Obs.Gauge.record m_catalog_generation g.gen;
      Log.info (fun m ->
          m "catalog generation %d activates at VN %d (%d table(s))" g.gen vn
            (List.length g.order))
    end

  (* Publish VNs strictly in order: the pipeline's token holder calls this
     once per stripe, so publishes never race each other (readers race
     them, which is the whole point).  Each publish is one maintenance
     commit for the telemetry and the epoch machinery; the last one
     finishes the transaction. *)
  let publish m =
    check_live m;
    let t = m.owner in
    let v = vn m in
    let last = m.published + 1 = m.count in
    if last then Option.iter (activate t ~vn:v) m.staged;
    Version_state.publish t.version ~vn:v;
    m.published <- m.published + 1;
    if last then m.finished <- true;
    (* Publish the committed VN as the new epoch: sessions opened from
       here pin it. *)
    Epoch.advance t.epochs v;
    Obs.Counter.record m_maintenance_commits 1;
    Obs.Gauge.record m_current_vn v;
    Log.info (fun m' ->
        let s = m.txn_stats in
        m' "maintenance VN %d published (%d/%d; %d ins / %d upd / %d del logical)" v m.published
          m.count s.Maintenance.logical_inserts s.Maintenance.logical_updates
          s.Maintenance.logical_deletes)

  let commit m =
    check_live m;
    if m.published + 1 <> m.count then
      invalid_arg "Twovnl.Txn.commit: earlier VNs of the transaction are unpublished";
    publish m

  let abort m =
    check_live m;
    m.finished <- true;
    let t = m.owner in
    (* Unstage first: drop this transaction's private tables and move the
       frozen originals back under their logical names, so the tuple-level
       rollback below walks exactly the pre-transaction catalog. *)
    (match m.staged with
    | None -> ()
    | Some st ->
      List.iter (fun name -> Database.drop_table t.db name) st.s_created;
      List.iter
        (fun (logical, frozen) -> Database.rename_table t.db frozen logical)
        st.s_renamed;
      Database.set_generations_meta t.db st.s_prev_meta;
      m.staged <- None);
    let current, reverted =
      revert_unpublished t ~over_deleted:(was_insert_over_delete m)
    in
    Obs.Counter.record m_maintenance_aborts 1;
    Log.info (fun m' ->
        m' "maintenance transaction aborted past published VN %d; %d tuples reverted" current
          reverted);
    reverted
end
