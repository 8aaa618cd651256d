(* The repository benchmark: one workload per process, inputs from a seed.

     perfbench.exe --workload <scan_cold|wire_probe|drain_spill>
                   --seed <n> --seconds <s> --trace <0|1>

   Every workload runs the DailySales summary view over the same seeded
   9,400-row sales base.  A run is [slices] equal slices of [--seconds];
   each sets up a fresh warehouse (timed, from [Warehouse.create] to a warm
   steady state), measures it with observability off, and checks it.
   [setup_s] is the median of the slices' set-ups, which are thereby spread
   over the whole run like every other sample.  With [--trace 1] every
   other slice is traced, so that traced and untraced slices see the same
   host conditions; the per-layer figures, layer tables and tracing
   overhead come from the traced ones.  Any correctness failure exits 1
   without printing a result.  The last line of standard output is the
   JSON result. *)

module Tuple = Vnl_relation.Tuple
module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Xorshift = Vnl_util.Xorshift
module Warehouse = Vnl_warehouse.Warehouse
module View_def = Vnl_warehouse.View_def
module Sales_gen = Vnl_workload.Sales_gen
module Twovnl = Vnl_core.Twovnl
module Database = Vnl_query.Database
module Executor = Vnl_query.Executor
module Buffer_pool = Vnl_storage.Buffer_pool
module Disk = Vnl_storage.Disk
module Obs = Vnl_obs.Obs
module Server = Vnl_net.Server
module Client = Vnl_net.Client
module Conn = Vnl_net.Conn
module Wire = Vnl_net.Wire
module M = Measure

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* ---------- workloads ---------- *)

type kind = Scan_cold | Wire_probe | Drain_spill

type config = {
  kind : kind;
  name : string;
  pool : int;  (** Buffer-pool frames. *)
  inserts : int;  (** Per batch; for drain_spill, the sales on a new day. *)
  updates : int;
  deletes : int;  (** Per batch; drain_spill balances its own deletes. *)
  gc_every : int;  (** [collect_garbage] after every this many commits. *)
}

(* A run is this many slices, each on a freshly set-up warehouse. *)
let slices = 7

let days = 40

let per_day = 235

let view_name = "DailySales"

let rollup = "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state"

let scan_cold =
  {
    kind = Scan_cold;
    name = "scan_cold";
    pool = 32;
    inserts = 6;
    updates = 8;
    deletes = 6;
    gc_every = 4;
  }

(* scan_cold schedule: sessions come in cycles of [k_sessions], with a
   commit after each cycle.  Session i of a cycle runs the rollup twice as
   an Example 2.1 pair when i mod [k_sessions] = 1; the others are one-shot
   rollups.  A pair's second query is served from the session's memoized
   visible relation: a 1:1 mix of cold and memoized queries would put the
   median exactly between two latency modes, while this 4:1 mix keeps it
   inside the cold mode.  Traced runs split one one-shot session in every
   other cycle (see [split_rollup]).  Pair session i is held open across one commit
   when i mod [hold1] = 1 (it must survive, n = 2) and across two when
   i mod [hold2] = 6 (it must expire). *)
let k_sessions = 5

let hold1 = 25

let hold2 = 400

let wire_probe =
  {
    kind = Wire_probe;
    name = "wire_probe";
    pool = 512;
    inserts = 2;
    updates = 1;
    deletes = 1;
    gc_every = 10;
  }

(* wire_probe: maintainer pacing in commits per second, probes per session
   (plus a repeat of the first, the session's consistency pair), and the
   share of probes compared with an in-process answer.  The batches are
   small on purpose: a refresh that has to run a minor collection is about
   twice as slow, and with 8-change batches about one refresh in twenty
   did, which put commit_p95_ms on that knee; with 4 changes it is about
   one in forty. *)
let commit_rate = 40.0

let probes_per_session = 8

let sample_every = 32

let drain_spill =
  {
    kind = Drain_spill;
    name = "drain_spill";
    pool = 32;
    inserts = 25;
    updates = 100;
    deletes = 0;
    gc_every = 4;
  }

let workloads = [ scan_cold; wire_probe; drain_spill ]

(* In-process workloads warm up with this many rollups, one session each. *)
let warmup_rollups = 64

(* ---------- inputs ---------- *)

type inputs = {
  initial : Vnl_warehouse.Delta.change list;
  batches : Inputs.batch array;
  probes : string array;
  probe_seed : int;  (** Seeds the choice of probes, slice by slice. *)
  base_rows : int;
  base_groups : int;
}

(* Upper bound on commits one slice can make; generation is O(changes).
   Every slice replays the same batches from the first. *)
let max_batches cfg ~seconds =
  match cfg.kind with
  | Scan_cold -> int_of_float (100.0 *. seconds) + 100
  | Wire_probe -> int_of_float (commit_rate *. seconds) + 20
  | Drain_spill -> int_of_float (30.0 *. seconds) + 50

let make_inputs cfg ~seed ~seconds =
  let rng = Xorshift.create (1 + (seed land 0x3fffffff)) in
  let m = Inputs.create () in
  let initial = Inputs.initial rng m ~days ~per_day in
  let base_rows = Inputs.live_rows m and base_groups = Inputs.live_groups m in
  let batches =
    Array.init (max_batches cfg ~seconds) (fun i ->
        match cfg.kind with
        | Drain_spill ->
          Inputs.spill rng m ~fresh_day:(days + i) ~fresh:cfg.inserts ~updates:cfg.updates
            ~target_rows:base_rows
        | Scan_cold | Wire_probe ->
          Inputs.mixed rng m ~days ~inserts:cfg.inserts ~updates:cfg.updates ~deletes:cfg.deletes)
  in
  let probes = if cfg.kind = Wire_probe then Inputs.probe_sql ~days else [||] in
  { initial; batches; probes; probe_seed = Xorshift.int rng 0x3fffffff; base_rows; base_groups }

(* ---------- the warehouse under test ---------- *)

type env = {
  wh : Warehouse.t;
  vnl : Twovnl.t;
  mutable server : Server.t option;
  mutable client : Client.t option;
  mutable next_batch : int;
}

let sorted_rows rows = List.sort compare rows

(* A probe's rows and the number of round trips it took. *)
let wire_answer c sql =
  match Client.query c sql with
  | Error e -> Error e
  | Ok (cursor, _, _) ->
    let rec drain acc trips =
      match Client.fetch c ~cursor ~max_rows:0 with
      | Error e -> Error e
      | Ok (rows, true) -> Ok (List.rev_append acc rows, trips + 1)
      | Ok (rows, false) -> drain (List.rev_append rows acc) (trips + 1)
    in
    drain [] 1

let hello c =
  match Client.hello c with
  | Ok (_, vn) -> vn
  | Error e -> fail "hello refused: %s" e.Client.message

(* From [Warehouse.create] to warm steady state. *)
let setup cfg inputs =
  let wh = Warehouse.create ~pool_capacity:cfg.pool [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:view_name inputs.initial;
  ignore (Warehouse.refresh wh);
  let vnl = Warehouse.vnl wh in
  let env = { wh; vnl; server = None; client = None; next_batch = 0 } in
  (match cfg.kind with
  | Scan_cold | Drain_spill ->
    (* Warm-up: compile the rollup and run it through the pool. *)
    for _ = 1 to warmup_rollups do
      let s = Twovnl.Session.begin_ vnl in
      ignore (Twovnl.Session.query vnl s rollup);
      Twovnl.Session.end_ vnl s
    done
  | Wire_probe ->
    let config = { Server.default_config with workers = 1 } in
    let srv = Server.start ~config (Server.Tcp { host = "127.0.0.1"; port = 0 }) vnl in
    env.server <- Some srv;
    let c = Client.connect (Client.Tcp ("127.0.0.1", Server.port srv)) in
    env.client <- Some c;
    ignore (hello c);
    (* Warm-up: every distinct probe once, filling the plan cache. *)
    Array.iter
      (fun sql ->
        match wire_answer c sql with
        | Ok _ -> ()
        | Error e -> fail "warm-up probe failed: %s" e.Client.message)
      inputs.probes);
  env

let teardown env =
  (match env.client with
  | Some c -> (
    env.client <- None;
    match Client.bye c with Ok () -> () | Error _ -> Client.disconnect c)
  | None -> ());
  match env.server with
  | Some srv ->
    env.server <- None;
    Server.stop srv
  | None -> ()

(* ---------- tallies ---------- *)

type tally = {
  lat : M.samples;  (** Reader request latency, ms; [infinity] = failed. *)
  mutable attempted : int;
  mutable completed : int;
  mutable errors : int;  (** Requests that failed other than by expiry. *)
  mutable sessions : int;
  mutable sessions_ok : int;
  mutable expired : int;
  commit : M.samples;  (** [Warehouse.refresh], ms. *)
  queue : M.samples;  (** [Warehouse.queue_changes], ms. *)
  mutable changes : int;
  gc : M.samples;
  mutable reclaimed : int;
  lag : M.samples;  (** Maintainer lateness against its schedule, ms. *)
  mutable compared : int;  (** Wire answers checked against in-process. *)
  (* Traced-only boundary timings. *)
  session_us : M.samples;
  inproc_ms : M.samples;
  extract_ms : M.samples;
  conn_ms : M.samples;
  mutable parts : (float * float array) list;
      (** Sampled requests: a total, and per-layer self times timed apart. *)
}

let tally () =
  {
    lat = M.samples ();
    attempted = 0;
    completed = 0;
    errors = 0;
    sessions = 0;
    sessions_ok = 0;
    expired = 0;
    commit = M.samples ();
    queue = M.samples ();
    changes = 0;
    gc = M.samples ();
    reclaimed = 0;
    lag = M.samples ();
    compared = 0;
    session_us = M.samples ();
    inproc_ms = M.samples ();
    extract_ms = M.samples ();
    conn_ms = M.samples ();
    parts = [];
  }

(* One commit of the next pregenerated batch: queue, then refresh. *)
let commit env inputs t ~commits ~gc_every =
  let b = inputs.batches.(env.next_batch) in
  env.next_batch <- env.next_batch + 1;
  let (), q = M.time_ms (fun () -> Warehouse.queue_changes env.wh ~view:view_name b.changes) in
  let _, r = M.time_ms (fun () -> Warehouse.refresh env.wh) in
  M.add t.queue q;
  M.add t.commit r;
  t.changes <- t.changes + Inputs.batch_size b;
  if commits mod gc_every = 0 then begin
    let n, g = M.time_ms (fun () -> Warehouse.collect_garbage env.wh) in
    M.add t.gc g;
    t.reclaimed <- t.reclaimed + n
  end

let batches_left env inputs = env.next_batch < Array.length inputs.batches

(* A timed in-process rollup: the sorted rows ([None] when the session
   has expired) and the request's latency. *)
let timed_rollup env t ~traced s =
  t.attempted <- t.attempted + 1;
  let t0 = M.now_ns () in
  match Twovnl.Session.query env.vnl s rollup with
  | r ->
    let ms = M.ms_since t0 in
    M.add t.lat ms;
    t.completed <- t.completed + 1;
    if traced then M.add t.inproc_ms ms;
    (Some (sorted_rows r.Executor.rows), ms)
  | exception Twovnl.Expired _ ->
    M.add t.lat infinity;
    (None, infinity)

(* Sessions carry the time their [begin_] took, so a traced run can report
   [begin_] + [end_] per session. *)
let begin_session env ~traced =
  if traced then begin
    let t0 = M.now_ns () in
    let s = Twovnl.Session.begin_ env.vnl in
    (s, Int64.sub (M.now_ns ()) t0)
  end
  else (Twovnl.Session.begin_ env.vnl, 0L)

let end_session env t ~traced (s, begin_ns) =
  if traced then begin
    let t0 = M.now_ns () in
    Twovnl.Session.end_ env.vnl s;
    M.add t.session_us (Int64.to_float (Int64.add begin_ns (Int64.sub (M.now_ns ()) t0)) /. 1e3)
  end
  else Twovnl.Session.end_ env.vnl s

(* Traced only: a fresh session's rollup made as two public calls timed
   apart, the session's reader extraction ([Session.read_table], which
   memoizes the visible relation in the session) and then the query, which
   runs over the memoized relation.  The request does the same work as one
   [Session.query] in a fresh session, but its latency is kept out of
   [t.lat]: the layer rows it gives are checked against the p50 of whole
   [Session.query] calls. *)
let split_rollup env t s =
  t.attempted <- t.attempted + 1;
  let _, e = M.time_ms (fun () -> Twovnl.Session.read_table env.vnl s view_name) in
  let _, q = M.time_ms (fun () -> Twovnl.Session.query env.vnl s rollup) in
  t.completed <- t.completed + 1;
  M.add t.extract_ms e;
  M.add t.inproc_ms q;
  t.parts <- (e +. q, [| e; q |]) :: t.parts

(* ---------- scan_cold ---------- *)

type held = {
  sess : Twovnl.Session.s * int64;
  first : Value.t list list option;
  release_at : int;  (** Finish after this many commits in all. *)
  must_expire : bool;
}

let run_scan_cold env inputs t ~traced ~seconds =
  let deadline = Int64.add (M.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let commits = ref 0 and i = ref 0 and held = ref [] in
  let finish h =
    let second, _ = timed_rollup env t ~traced (fst h.sess) in
    (match second with
    | None ->
      t.expired <- t.expired + 1;
      if not h.must_expire then fail "scan_cold: a session held across one commit expired"
    | Some rows ->
      if h.must_expire then fail "scan_cold: a session held across two commits survived";
      if Some rows <> h.first then fail "scan_cold: Example 2.1 pair disagrees across a commit";
      t.sessions_ok <- t.sessions_ok + 1);
    end_session env t ~traced h.sess
  in
  while Int64.compare (M.now_ns ()) deadline < 0 && batches_left env inputs do
    incr i;
    t.sessions <- t.sessions + 1;
    let ((s, _) as sess) = begin_session env ~traced in
    if !i mod k_sessions <> 1 then begin
      if traced && !i mod (2 * k_sessions) = 2 then split_rollup env t s
      else if fst (timed_rollup env t ~traced s) = None then
        fail "scan_cold: a fresh session expired";
      t.sessions_ok <- t.sessions_ok + 1;
      end_session env t ~traced sess
    end
    else begin
      let first, _ = timed_rollup env t ~traced s in
      if first = None then fail "scan_cold: a fresh session expired";
      let hold release_at must_expire = held := { sess; first; release_at; must_expire } :: !held in
      if !i mod hold2 = 6 then hold (!commits + 2) true
      else if !i mod hold1 = 1 then hold (!commits + 1) false
      else finish { sess; first; release_at = 0; must_expire = false }
    end;
    if !i mod k_sessions = 0 then begin
      incr commits;
      commit env inputs t ~commits:!commits ~gc_every:scan_cold.gc_every;
      let due, later = List.partition (fun h -> h.release_at <= !commits) !held in
      held := later;
      List.iter finish (List.rev due)
    end
  done;
  (* Held sessions still open at the deadline finish now; a two-commit
     hold that has not yet seen its second commit legitimately survives. *)
  List.iter
    (fun h -> finish { h with must_expire = h.must_expire && !commits >= h.release_at })
    (List.rev !held)

(* ---------- drain_spill ---------- *)

(* Per commit: two one-shot rollup sessions, then an Example 2.1 pair whose
   two queries straddle the commit (a 3:1 mix of cold and memoized
   queries, for the reason given at scan_cold).  Traced runs split the
   first one-shot of every other commit (see [split_rollup]). *)
let run_drain_spill env inputs t ~traced ~seconds =
  let deadline = Int64.add (M.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let commits = ref 0 in
  let cold_query sess =
    let rows, _ = timed_rollup env t ~traced (fst sess) in
    if rows = None then fail "drain_spill: a fresh session expired";
    rows
  in
  while Int64.compare (M.now_ns ()) deadline < 0 && batches_left env inputs do
    for k = 1 to 2 do
      t.sessions <- t.sessions + 1;
      let one_shot = begin_session env ~traced in
      if traced && k = 1 && !commits mod 2 = 0 then split_rollup env t (fst one_shot)
      else ignore (cold_query one_shot);
      t.sessions_ok <- t.sessions_ok + 1;
      end_session env t ~traced one_shot
    done;
    t.sessions <- t.sessions + 1;
    let pair = begin_session env ~traced in
    let first = cold_query pair in
    incr commits;
    commit env inputs t ~commits:!commits ~gc_every:drain_spill.gc_every;
    (match timed_rollup env t ~traced (fst pair) with
    | None, _ -> fail "drain_spill: a session held across one commit expired"
    | second, _ ->
      if second <> first then fail "drain_spill: Example 2.1 pair disagrees across a commit";
      t.sessions_ok <- t.sessions_ok + 1);
    end_session env t ~traced pair
  done

(* ---------- wire_probe ---------- *)

(* The maintainer: commits paced open-loop at [commit_rate], due at
   t0 + i / rate whatever the readers do, each one's lateness against its
   due time recorded.  It runs on the client's domain, between probes: a
   separate maintainer domain would make three busy domains (client,
   server worker, maintainer) on a two-core host, and scheduler contention
   then decides the probe tail. *)
type pacer = { t0 : int64; mutable due : int }

let maintain_if_due env inputs t p =
  let due = Int64.add p.t0 (Int64.of_float (float_of_int p.due *. 1e9 /. commit_rate)) in
  let now = M.now_ns () in
  if Int64.compare now due >= 0 && batches_left env inputs then begin
    M.add t.lag (Int64.to_float (Int64.sub now due) /. 1e6);
    p.due <- p.due + 1;
    commit env inputs t ~commits:p.due ~gc_every:wire_probe.gc_every
  end

(* Traced only: replay the probe's request frames through a socket-free
   connection and time the connection layer alone. *)
let replay_conn conn out sql =
  let feed req =
    let frame = Wire.encode_request req in
    let t0 = M.now_ns () in
    Conn.on_input conn frame 0 (Bytes.length frame);
    (match Conn.peek_output conn with
    | Some (buf, off, len) ->
      Buffer.add_subbytes out buf off len;
      Conn.consume_output conn len
    | None -> ());
    M.ms_since t0
  in
  let dec = Wire.Decoder.response () in
  let next () =
    let b = Buffer.to_bytes out in
    Buffer.clear out;
    Wire.Decoder.feed dec b 0 (Bytes.length b);
    Wire.Decoder.next dec
  in
  ignore (feed (Wire.Hello "replay"));
  ignore (next ());
  let ms_query = feed (Wire.Query sql) in
  match next () with
  | `Msg (Wire.Result { cursor; _ }) ->
    let rec fetch acc =
      let ms = feed (Wire.Fetch { cursor; max_rows = 0 }) in
      match next () with
      | `Msg (Wire.Rows { last = true; _ }) -> Some (acc +. ms)
      | `Msg (Wire.Rows _) -> fetch (acc +. ms)
      | _ -> None
    in
    fetch ms_query
  | _ -> None

(* Traced only: round trips of a request the server answers without work
   ([Close_cursor] of a cursor that does not exist), which time the
   socket, the select loop and the client's decode alone.  Three go back
   to back, as a probe's round trips do, and the median is returned. *)
let no_cursor = 0xffff_fff0

let noop_round_trip c =
  let trip () =
    let t0 = M.now_ns () in
    match Client.close_cursor c no_cursor with
    | Error { Client.code = Wire.Unknown_cursor; _ } -> M.ms_since t0
    | Ok () | Error _ -> fail "wire_probe: closing a cursor that does not exist did not fail"
  in
  let a = trip () in
  let b = trip () in
  let c = trip () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

let run_wire_probe env inputs t ~traced ~slice ~seconds =
  let c = Option.get env.client in
  let deadline = Int64.add (M.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let pacer = { t0 = M.now_ns (); due = 0 } in
  let rng = Xorshift.create (inputs.probe_seed + slice) in
  let conn = if traced then Some (Conn.create env.vnl) else None in
  let out = Buffer.create 256 in
  let n_probes = Array.length inputs.probes in
  let probe_no = ref 0 in
  let body () =
    while Int64.compare (M.now_ns ()) deadline < 0 do
      t.sessions <- t.sessions + 1;
      let vn = hello c in
      let first = inputs.probes.(Xorshift.int rng n_probes) in
      let ok = ref true and first_answer = ref None and k = ref 0 in
      while !ok && !k <= probes_per_session do
        maintain_if_due env inputs t pacer;
        let sql =
          if !k = 0 || !k = probes_per_session then first
          else inputs.probes.(Xorshift.int rng n_probes)
        in
        incr k;
        incr probe_no;
        t.attempted <- t.attempted + 1;
        let t0 = M.now_ns () in
        match wire_answer c sql with
        | Ok (rows, trips) ->
          let rtt = M.ms_since t0 in
          M.add t.lat rtt;
          t.completed <- t.completed + 1;
          let rows = sorted_rows rows in
          if !k = 1 then first_answer := Some rows
          else if !k = probes_per_session + 1 && Some rows <> !first_answer then
            fail "wire_probe: a session's repeated probe disagrees";
          if !probe_no mod sample_every = 0 then begin
            (* Same question in-process, at the same version when the
               maintainer has not published in between. *)
            let ((s, _) as sess) = begin_session env ~traced in
            if Twovnl.Session.vn s = vn then begin
              let conn_ms =
                match conn with
                | Some conn ->
                  (* Warm this core's caches first, as the server's worker
                     core is warm when it serves a probe. *)
                  ignore (Twovnl.Session.query env.vnl s sql);
                  replay_conn conn out sql
                | None -> None
              in
              let local, q = M.time_ms (fun () -> Twovnl.Session.query env.vnl s sql) in
              if sorted_rows local.Executor.rows <> rows then
                fail "wire_probe: wire answer differs from the in-process answer";
              t.compared <- t.compared + 1;
              match conn_ms with
              | Some conn_ms ->
                (* The probe's round trips, each timed as a no-work one. *)
                let transport = float_of_int trips *. noop_round_trip c in
                M.add t.inproc_ms q;
                M.add t.conn_ms conn_ms;
                t.parts <- (rtt, [| transport; conn_ms -. q; q |]) :: t.parts
              | None -> ()
            end;
            end_session env t ~traced sess
          end
        | Error { Client.code = Wire.Session_expired; _ } ->
          M.add t.lat infinity;
          t.expired <- t.expired + 1;
          ok := false
        | Error _ ->
          M.add t.lat infinity;
          t.errors <- t.errors + 1;
          ok := false
      done;
      if !ok then t.sessions_ok <- t.sessions_ok + 1
    done
  in
  Fun.protect ~finally:(fun () -> Option.iter Conn.close conn) body

(* ---------- correctness at the end of a run ---------- *)

let final_checks cfg env =
  teardown env;
  let lag = Twovnl.current_vn env.vnl - Twovnl.min_session_vn env.vnl in
  if lag <> 0 then fail "%s: current_vn - min_session_vn = %d after shutdown" cfg.name lag;
  let s = Twovnl.Session.begin_ env.vnl in
  let got = Warehouse.read_view env.wh s view_name in
  Twovnl.Session.end_ env.vnl s;
  let want = Warehouse.expected_view env.wh view_name in
  let norm l = List.sort Tuple.compare l in
  if List.length got <> List.length want || not (List.for_all2 Tuple.equal (norm got) (norm want))
  then fail "%s: read_view differs from expected_view (%d vs %d groups)" cfg.name (List.length got) (List.length want);
  List.length got

(* ---------- end-to-end figures ---------- *)

type e2e = {
  setup_s : float;
  qps : float;
  q50 : float;
  q99 : float;
  q_tail : float;  (** The quantile actually reported as [query_p99_ms]. *)
  q_windows : int;
  ok_frac : float;
  c50 : float;
  c95 : float;
  c_tail : float;
  c_windows : int;
  ingest : float;
  space_amp : float;
  rss : float;
}

let space_amp env ~live_groups =
  let disk = Database.disk (Warehouse.database env.wh) in
  let target = View_def.target_schema (Warehouse.view env.wh view_name) in
  float_of_int (Disk.page_count disk * Disk.page_size disk)
  /. float_of_int (max 1 live_groups * Schema.width target)

let e2e_of t ~elapsed ~setup_s ~space_amp =
  let q99, q_tail, q_windows = M.windowed_tail t.lat 0.99
  and c95, c_tail, c_windows = M.windowed_tail t.commit 0.95 in
  let ingest_ms = M.sum t.queue +. M.sum t.commit in
  {
    setup_s;
    qps = float_of_int t.completed /. elapsed;
    q50 = M.median t.lat;
    q99;
    q_tail;
    q_windows;
    ok_frac = float_of_int t.sessions_ok /. float_of_int (max 1 t.sessions);
    c50 = M.median t.commit;
    c95;
    c_tail;
    c_windows;
    ingest = (if ingest_ms > 0.0 then float_of_int t.changes /. (ingest_ms /. 1e3) else 0.0);
    space_amp;
    rss = M.peak_rss_mb ();
  }

(* ---------- output ---------- *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_line ~attempted ~failed metrics =
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then fail "metric %s is not finite" name)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed body

let e2e_metrics e =
  [
    ("setup_s", e.setup_s, "s");
    ("queries_per_s", e.qps, "1/s");
    ("query_p50_ms", e.q50, "ms");
    ("query_p99_ms", e.q99, "ms");
    ("session_ok_frac", e.ok_frac, "ratio");
    ("commit_p50_ms", e.c50, "ms");
    ("commit_p95_ms", e.c95, "ms");
    ("ingest_changes_per_s", e.ingest, "1/s");
    ("space_amp", e.space_amp, "ratio");
    ("peak_rss_mb", e.rss, "MiB");
  ]

let print_e2e t e =
  Printf.printf "%-22s %12s  %s\n" "metric" "value" "notes";
  List.iter
    (fun (name, v, unit) ->
      let note =
        match name with
        | "query_p50_ms" -> Printf.sprintf "n=%d" (M.count t.lat)
        | "query_p99_ms" ->
          Printf.sprintf "quantile %.4f, median of %d windows, n=%d" e.q_tail e.q_windows
            (M.count t.lat)
        | "commit_p50_ms" -> Printf.sprintf "n=%d" (M.count t.commit)
        | "commit_p95_ms" ->
          Printf.sprintf "quantile %.4f, median of %d windows, n=%d" e.c_tail e.c_windows
            (M.count t.commit)
        | "session_ok_frac" ->
          Printf.sprintf "%d of %d sessions (expired %d)" t.sessions_ok t.sessions t.expired
        | "setup_s" -> Printf.sprintf "median of %d set-ups, one per slice" slices
        | _ -> ""
      in
      Printf.printf "%-22s %12.4f  %s %s\n" name v unit note)
    (e2e_metrics e)

(* ---------- traced run ---------- *)

type snapshot = { pool : Buffer_pool.stats; disk : Disk.stats; gc : Gc.stat }

let snapshot env =
  let db = Warehouse.database env.wh in
  { pool = Database.io_stats db; disk = Disk.stats (Database.disk db); gc = Gc.quick_stat () }

let counter name = float_of_int (Obs.Counter.get (Obs.Registry.counter name))

let per a b = if b > 0.0 then a /. b else 0.0

(* Per-layer figures of the traced slices' tally [t] against the untraced
   slices' [u], with the query-path and commit-path layer tables.  [io]
   holds each traced slice's snapshots around its measured phase, [pages]
   each one's final page count. *)
let layer_metrics cfg ~(u : tally) ~(t : tally) ~io ~pages =
  let f = float_of_int in
  let queries = counter "twovnl.reader_queries" in
  let commits = f (M.count t.commit) in
  let ops = f t.completed +. commits in
  let sum_io g = f (List.fold_left (fun acc (before, after) -> acc + g after - g before) 0 io) in
  let dpool g = sum_io (fun s -> g s.pool) and ddisk g = sum_io (fun s -> g s.disk) in
  let logical = dpool (fun p -> p.Buffer_pool.logical_reads) in
  let gcs = List.map (fun (before, after) -> M.gc_delta before.gc after.gc) io in
  let dgc g = List.fold_left (fun acc d -> acc +. g d) 0.0 gcs in
  let wire = cfg.kind = Wire_probe in
  let q_traced = M.median t.lat and q_untraced = M.median u.lat in
  let c_traced = M.median t.commit and c_untraced = M.median u.commit in
  let rtt = if wire then q_traced else 0.0 in
  let conn = if wire then M.median t.conn_ms else 0.0 in
  let query_names =
    if wire then [ "net transport (no-work trips)"; "net conn (conn - query)"; "twovnl.query" ]
    else [ "reader extract (read_table)"; "twovnl.query (memoized)" ]
  in
  let query_rows =
    List.combine query_names
      (Array.to_list (Layers.interquartile_mean t.parts ~width:(List.length query_names)))
  in
  let query_ratio =
    Layers.print_table ~title:"query path: self time per sampled request (interquartile mean)"
      ~traced:q_traced ~untraced:q_untraced query_rows
  in
  let per_commit = Layers.commit_rows () in
  let commit_ratio =
    Layers.print_table ~title:"commit path: Obs phase self time (CPU) per Warehouse.refresh"
      ~traced:c_traced ~untraced:c_untraced per_commit
  in
  if not (Layers.within query_ratio) then
    fail "%s: query-path layers add up to %.3f of the traced p50" cfg.name query_ratio;
  if not (Layers.within commit_ratio) then
    fail "%s: commit-path layers add up to %.3f of the traced p50" cfg.name commit_ratio;
  let phase name = List.assoc name per_commit in
  let queue_total = M.sum t.queue and refresh_total = M.sum t.commit in
  [
    ("net.rtt_ms", rtt, "ms");
    ("net.conn_ms", conn, "ms");
    ("net.transport_ms", rtt -. conn, "ms");
    ("net.expiry_pushes", counter "net.expiry_pushes", "count");
    ("twovnl.session_us", M.median t.session_us, "us");
    ("twovnl.query_ms", M.median t.inproc_ms, "ms");
    ( "twovnl.plan_hit_ratio",
      per (counter "twovnl.reader_plan_hits")
        (counter "twovnl.reader_plan_hits" +. counter "twovnl.reader_plan_misses"),
      "ratio" );
    ("twovnl.sessions_expired", counter "twovnl.sessions_expired", "count");
    ("reader.extract_ms", M.median t.extract_ms, "ms");
    ("reader.visibility_decodes", per (counter "reader.visibility_decodes") queries, "1/query");
    ("reader.slow_decodes", per (counter "reader.slow_decodes") queries, "1/query");
    ("pool.hit_ratio", per (dpool (fun p -> p.Buffer_pool.hits)) logical, "ratio");
    ("pool.misses_per_query", per (dpool (fun p -> p.Buffer_pool.misses)) queries, "1/query");
    ( "pool.opt_retries",
      1000.0 *. per (dpool (fun p -> p.Buffer_pool.opt_retries)) logical,
      "1/1k_reads" );
    ( "pool.opt_fallbacks",
      1000.0 *. per (dpool (fun p -> p.Buffer_pool.opt_fallbacks)) logical,
      "1/1k_reads" );
    ("pool.evictions", per (dpool (fun p -> p.Buffer_pool.evictions)) commits, "1/commit");
    ( "pool.physical_writes",
      per (dpool (fun p -> p.Buffer_pool.physical_writes)) commits,
      "1/commit" );
    ("disk.reads", per (ddisk (fun d -> d.Disk.reads)) queries, "1/query");
    ("disk.writes", per (ddisk (fun d -> d.Disk.writes)) commits, "1/commit");
    ( "disk.seq_write_frac",
      per (ddisk (fun d -> d.Disk.seq_writes)) (ddisk (fun d -> d.Disk.writes)),
      "ratio" );
    ("disk.pages", M.median_list (List.map f pages), "pages");
    ("warehouse.queue_ms", M.median t.queue, "ms");
    ("warehouse.queue_share", per queue_total (queue_total +. refresh_total), "ratio");
    ("warehouse.refresh_ms", c_traced, "ms");
    ("summary.net_deltas", phase "summary.net_deltas", "ms/commit");
    ("summary.classify", phase "summary.classify", "ms/commit");
    ("summary.resolve", phase "summary.resolve", "ms/commit");
    ("batch.group", phase "batch.group", "ms/commit");
    ("batch.resolve", phase "batch.resolve", "ms/commit");
    ("batch.fold", phase "batch.fold", "ms/commit");
    ("batch.apply", phase "batch.apply", "ms/commit");
    ("maintenance.flag", phase "maintenance.flag", "ms/commit");
    ("maintenance.flush", phase "maintenance.flush", "ms/commit");
    ("maintenance.publish", phase "maintenance.publish", "ms/commit");
    ("gc.collect_ms", M.mean t.gc, "ms");
    ("twovnl.gc_reclaimed", f t.reclaimed, "count");
    ("runtime.minor_gcs_per_op", per (dgc (fun d -> f d.M.minor)) ops, "1/op");
    ("runtime.major_gcs_per_op", per (dgc (fun d -> f d.M.major)) ops, "1/op");
    ("runtime.promoted_words_per_op", per (dgc (fun d -> d.M.promoted_words)) ops, "words/op");
    ("maint.lag_ms", M.median t.lag, "ms");
    ("trace.overhead_query", per q_traced q_untraced, "ratio");
    ("trace.overhead_commit", per c_traced c_untraced, "ratio");
    ("layers.query_sum_ratio", query_ratio, "ratio");
    ("layers.commit_sum_ratio", commit_ratio, "ratio");
  ]

(* ---------- slices ---------- *)

type slice = {
  host_ms : float;  (** [Measure.host_probe_ms] before the set-up. *)
  setup_s : float;
  setup_pages : int;  (** Table pages right after set-up. *)
  elapsed : float;  (** Seconds of the measured phase. *)
  slice_amp : float;  (** [space_amp] at the end of the slice. *)
  pages : int;
  io : snapshot * snapshot;  (** Around the measured phase. *)
}

(* One slice: set up a fresh warehouse (timed), [Gc.compact], measure it
   for [seconds] into [t] with observability on only if [traced], then
   run the end-of-run checks. *)
let run_slice cfg inputs t ~slice ~traced ~seconds =
  Gc.compact ();
  let host_ms = M.host_probe_ms () in
  let t0 = M.now_ns () in
  let env = setup cfg inputs in
  let setup_s = M.s_since t0 in
  let disk () = Database.disk (Warehouse.database env.wh) in
  let setup_pages = Disk.page_count (disk ()) in
  Gc.compact ();
  let before = snapshot env in
  Obs.enabled := traced;
  let t1 = M.now_ns () in
  (match cfg.kind with
  | Scan_cold -> run_scan_cold env inputs t ~traced ~seconds
  | Drain_spill -> run_drain_spill env inputs t ~traced ~seconds
  | Wire_probe -> run_wire_probe env inputs t ~traced ~slice ~seconds);
  let elapsed = M.s_since t1 in
  Obs.enabled := false;
  let after = snapshot env in
  let live_groups = final_checks cfg env in
  {
    host_ms;
    setup_s;
    setup_pages;
    elapsed;
    slice_amp = space_amp env ~live_groups;
    pages = Disk.page_count (disk ());
    io = (before, after);
  }

(* ---------- main ---------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload <scan_cold|wire_probe|drain_spill> --seed <n> --seconds <s> \
     --trace <0|1>";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref 0 in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := List.find_opt (fun c -> c.name = w) workloads;
      if !workload = None then usage ();
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := Option.bind (int_of_string_opt s) (fun s -> if s > 0 then Some s else None);
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := int_of_string v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some w, Some seed, Some seconds -> (w, seed, seconds, !trace = 1)
  | _ -> usage ()

let () =
  let cfg, seed, seconds, trace = parse_args () in
  Obs.enabled := false;
  Obs.reset ();
  let slice_s = float_of_int seconds /. float_of_int slices in
  let inputs = make_inputs cfg ~seed ~seconds:slice_s in
  let mean_kind f =
    float_of_int (Array.fold_left (fun acc b -> acc + f b) 0 inputs.batches)
    /. float_of_int (Array.length inputs.batches)
  in
  Printf.printf
    "workload %s, seed %d, %d s in %d slices, trace %b; domains %d (nproc %d, CPUs allowed %s)\n\
     inputs: base rows %d, live groups %d, distinct SQL texts %d; per batch %.1f inserts, \
     %.1f updates, %.1f deletes (mean of %d pregenerated)\n\
     %!"
    cfg.name seed seconds slices trace
    (match cfg.kind with Wire_probe -> 3 | Scan_cold | Drain_spill -> 1)
    (M.nproc ()) (M.cpus_allowed ()) inputs.base_rows inputs.base_groups
    (match cfg.kind with Wire_probe -> Array.length inputs.probes | Scan_cold | Drain_spill -> 1)
    (mean_kind (fun b -> b.Inputs.inserts))
    (mean_kind (fun b -> b.Inputs.updates))
    (mean_kind (fun b -> b.Inputs.deletes))
    (Array.length inputs.batches);
  match
    let is_traced i = trace && i mod 2 = 1 in
    let u = tally () and t = tally () in
    let runs =
      List.init slices (fun i ->
          let traced = is_traced i in
          run_slice cfg inputs (if traced then t else u) ~slice:i ~traced ~seconds:slice_s)
    in
    let untraced = List.filteri (fun i _ -> not (is_traced i)) runs
    and traced = List.filteri (fun i _ -> is_traced i) runs in
    let setup_s = M.median_list (List.map (fun r -> r.setup_s) runs) in
    Printf.printf "set-up: %s s; table %d pages against %d pool frames\n"
      (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.setup_s) runs))
      (List.hd runs).setup_pages cfg.pool;
    Printf.printf "host probe: %s ms (a fixed loop, before each set-up)\n"
      (String.concat " " (List.map (fun r -> Printf.sprintf "%.2f" r.host_ms) runs));
    let elapsed = List.fold_left (fun acc r -> acc +. r.elapsed) 0.0 untraced in
    let space_amp = M.median_list (List.map (fun r -> r.slice_amp) untraced) in
    let e = e2e_of u ~elapsed ~setup_s ~space_amp in
    if trace then Printf.printf "untraced slices:\n";
    print_e2e u e;
    Printf.printf
      "commits %d, changes %d, queue share of ingest %.3f, gc runs %d reclaimed %d, wire \
       answers compared %d, maintainer lag p50 %.3f ms\n"
      (M.count u.commit) u.changes
      (per (M.sum u.queue) (M.sum u.queue +. M.sum u.commit))
      (M.count u.gc) u.reclaimed u.compared (M.median u.lag);
    let ops (t : tally) = t.attempted + M.count t.commit in
    if not trace then result_line ~attempted:(ops u) ~failed:u.errors (e2e_metrics e)
    else begin
      let metrics =
        layer_metrics cfg ~u ~t
          ~io:(List.map (fun r -> r.io) traced)
          ~pages:(List.map (fun r -> r.pages) traced)
      in
      Printf.printf "\n%-32s %14s\n" "per-layer metric" "value";
      List.iter (fun (name, v, unit) -> Printf.printf "%-32s %14.4f %s\n" name v unit) metrics;
      result_line ~attempted:(ops u + ops t) ~failed:(u.errors + t.errors) metrics
    end
  with
  | line -> print_endline line
  | exception Check_failed msg ->
    Printf.eprintf "correctness check failed: %s\n" msg;
    exit 1
