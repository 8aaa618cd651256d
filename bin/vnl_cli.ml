(* vnl: command-line interface to the 2VNL warehouse.

   Subcommands:
     vnl shell      interactive SQL shell over a demo DailySales warehouse,
                    with reader sessions and on-line maintenance
     vnl scenario   run a Figure 1 / Figure 2 operating-mode simulation
     vnl blocking   run the concurrency-control blocking comparison
     vnl expiry     evaluate the nVNL no-expiry formula for a workload
     vnl stats      run a demo workload and dump the metric registry
     vnl serve      serve the demo warehouse over the wire protocol
     vnl load       open-loop session-churn load generator against serve *)

module Value = Vnl_relation.Value
module Plan = Vnl_query.Plan
module Table = Vnl_query.Table
module Twovnl = Vnl_core.Twovnl
module Warehouse = Vnl_warehouse.Warehouse
module Scenario = Vnl_workload.Scenario
module Cc_sim = Vnl_workload.Cc_sim
module Sales_gen = Vnl_workload.Sales_gen
module Expiry = Vnl_core.Expiry
module Stats = Vnl_util.Stats
module T = Vnl_util.Ascii_table
module Xorshift = Vnl_util.Xorshift

(* ---------- vnl shell ---------- *)

let shell_help =
  {|Commands:
  <SELECT ...>        session-consistent query over the views (2VNL rewrite)
  .session            begin a fresh reader session (picks up latest version)
  .state              show currentVN / maintenanceActive / session version
  .maintain N         queue N random source changes and begin applying them
                      in an open maintenance transaction
  .commit             commit the open maintenance transaction
  .abort              roll the open maintenance transaction back (no log)
                      and requeue the changes it took
  .explain <SELECT>   show the rewritten query's access plan
  .rewrite <SELECT>   show the rewritten SQL (Example 4.1 style)
  .gc                 collect logically deleted tuples
  .help               this message
  .quit               exit|}

let run_shell seed n =
  let rng = Xorshift.create seed in
  let wh = Warehouse.create ~n ~pool_capacity:256 [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.initial_load rng ~days:5 ~sales_per_day:120);
  ignore (Warehouse.refresh wh);
  let vnl = Warehouse.vnl wh in
  let session = ref (Warehouse.begin_session wh) in
  let txn : Twovnl.Txn.m option ref = ref None in
  (* The changes the open transaction took off the queue, in arrival
     order: the source already holds them, so an abort puts them back. *)
  let taken = ref [] in
  let abort_txn m =
    let reverted = Twovnl.Txn.abort m in
    txn := None;
    Warehouse.requeue wh ~view:"DailySales" !taken;
    taken := [];
    reverted
  in
  let day = ref 6 in
  Printf.printf
    "%dVNL warehouse shell -- DailySales loaded (%d groups), currentVN = %d\n\
     Type .help for commands.\n"
    n
    (Table.tuple_count (Twovnl.table (Twovnl.handle_exn vnl "DailySales")))
    (Twovnl.current_vn vnl);
  let prompt () =
    Printf.printf "vnl[s%d]> " (Twovnl.Session.vn !session);
    flush stdout
  in
  let starts_with prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  let strip prefix s =
    String.trim (String.sub s (String.length prefix) (String.length s - String.length prefix))
  in
  let handle line =
    let line = String.trim line in
    if line = "" then true
    else if line = ".quit" || line = ".exit" then false
    else begin
      (try
         if line = ".help" then print_endline shell_help
         else if line = ".session" then begin
           Warehouse.end_session wh !session;
           session := Warehouse.begin_session wh;
           Printf.printf "new session at version %d\n" (Twovnl.Session.vn !session)
         end
         else if line = ".state" then
           Printf.printf "currentVN=%d maintenanceActive=%b sessionVN=%d txn=%s\n"
             (Twovnl.current_vn vnl)
             (Vnl_core.Version_state.maintenance_active (Twovnl.version_state vnl))
             (Twovnl.Session.vn !session)
             (match !txn with Some m -> Printf.sprintf "open (vn %d)" (Twovnl.Txn.vn m) | None -> "none")
         else if starts_with ".maintain" line then begin
           let n = try int_of_string (strip ".maintain" line) with _ -> 50 in
           let m =
             match !txn with
             | Some m -> m
             | None ->
               let m = Twovnl.Txn.begin_ vnl in
               txn := Some m;
               Printf.printf "maintenance transaction %d begun\n" (Twovnl.Txn.vn m);
               m
           in
           let src = Warehouse.source wh "DailySales" in
           let batch =
             Sales_gen.gen_batch rng src ~day:!day ~inserts:(n * 7 / 10) ~updates:(n * 2 / 10)
               ~deletes:(n / 10)
           in
           incr day;
           Warehouse.queue_changes wh ~view:"DailySales" batch;
           let pending = Warehouse.take_pending wh ~view:"DailySales" in
           taken := !taken @ pending;
           (* A failed apply leaves the groups before the failure written:
              abort, so no later .commit can publish half a batch. *)
           match Vnl_warehouse.Summary.apply_batch m (Warehouse.view wh "DailySales") pending with
           | o -> Format.printf "applied: %a (uncommitted)@." Vnl_warehouse.Summary.pp_outcome o
           | exception e ->
             let reverted = abort_txn m in
             Printf.printf "apply failed; maintenance transaction aborted, %d tuples reverted\n"
               reverted;
             raise e
         end
         else if line = ".commit" then (
           match !txn with
           | Some m ->
             Twovnl.Txn.commit m;
             txn := None;
             taken := [];
             Printf.printf "committed; currentVN = %d\n" (Twovnl.current_vn vnl)
           | None -> print_endline "no open maintenance transaction")
         else if line = ".abort" then (
           match !txn with
           | Some m ->
             Printf.printf "aborted; %d tuples reverted without a log\n" (abort_txn m)
           | None -> print_endline "no open maintenance transaction")
         else if starts_with ".explain" line then
           let sql = strip ".explain" line in
           print_endline
             (Plan.explain
                (Plan.prepare (Warehouse.database wh)
                   (Vnl_core.Rewrite.reader_select ~lookup:(Twovnl.lookup vnl)
                      (Vnl_sql.Parser.parse_select sql))))
         else if starts_with ".rewrite" line then
           print_endline
             (Vnl_core.Rewrite.reader_sql ~lookup:(Twovnl.lookup vnl) (strip ".rewrite" line))
         else if line = ".gc" then
           Printf.printf "%d tuples reclaimed\n" (Warehouse.collect_garbage wh)
         else if starts_with "." line then
           Printf.printf "unknown command %s (try .help)\n" line
         else Format.printf "%a@." Plan.pp_result (Warehouse.query wh !session line)
       with
      | Twovnl.Expired { session_vn; current_vn } ->
        Printf.printf
          "session expired (version %d, warehouse at %d): begin a new one with .session\n"
          session_vn current_vn
      | Vnl_sql.Parser.Parse_error msg -> Printf.printf "parse error: %s\n" msg
      | Vnl_sql.Lexer.Lex_error (msg, pos) -> Printf.printf "lex error at %d: %s\n" pos msg
      | Vnl_query.Eval.Eval_error msg | Plan.Query_error msg -> Printf.printf "error: %s\n" msg
      | Invalid_argument msg | Failure msg | Vnl_core.Op.Impossible msg ->
        Printf.printf "error: %s\n" msg);
      true
    end
  in
  let rec loop () =
    prompt ();
    match input_line stdin with
    | line -> if handle line then loop ()
    | exception End_of_file -> print_newline ()
  in
  loop ()

(* ---------- vnl scenario ---------- *)

let run_scenario mode days batch =
  let cfg = { Scenario.default_config with Scenario.days; batch_per_day = batch } in
  let cfg =
    if mode = Scenario.Offline then
      { cfg with Scenario.maintenance_start = 22 * 60; maintenance_len = 6 * 60 }
    else cfg
  in
  let r = Scenario.run cfg mode in
  Printf.printf "%s over %d days:\n\n" (Scenario.mode_name mode) days;
  print_endline (Scenario.render_timeline r);
  print_newline ();
  T.print
    ~header:[ "metric"; "value" ]
    [
      [ "sessions started"; string_of_int r.Scenario.sessions_started ];
      [ "sessions completed"; string_of_int r.Scenario.sessions_completed ];
      [ "sessions rejected/interrupted"; string_of_int r.Scenario.sessions_rejected ];
      [ "sessions expired"; string_of_int r.Scenario.sessions_expired ];
      [ "query pairs"; string_of_int (r.Scenario.queries_executed / 2) ];
      [ "inconsistent pairs"; string_of_int r.Scenario.inconsistent_pairs ];
      [ "availability"; T.fmt_pct (Scenario.availability r) ];
      [ "final view matches sources"; string_of_bool r.Scenario.view_matches_source ];
    ]

(* ---------- vnl blocking ---------- *)

let run_blocking readers writer_items =
  let cfg = { Cc_sim.default_config with Cc_sim.readers; writer_items } in
  T.print
    ~header:
      [ "scheme"; "reader mean"; "reader p99"; "blocked mean"; "writer span"; "commit wait";
        "locks"; "deadlocks" ]
    (List.map
       (fun r ->
         [
           Cc_sim.scheme_name r.Cc_sim.scheme;
           T.fmt_float r.Cc_sim.reader_latency.Stats.mean;
           T.fmt_float r.Cc_sim.reader_latency.Stats.p99;
           T.fmt_float r.Cc_sim.reader_blocked.Stats.mean;
           string_of_int r.Cc_sim.writer_span;
           string_of_int r.Cc_sim.writer_commit_wait;
           string_of_int r.Cc_sim.lock_acquisitions;
           string_of_int r.Cc_sim.deadlock_aborts;
         ])
       (Cc_sim.run_all cfg))

(* ---------- vnl expiry ---------- *)

let run_expiry gap txn_len session_len =
  Printf.printf
    "maintenance: %d-minute transactions with %d-minute gaps; sessions of %d minutes\n\n"
    txn_len gap session_len;
  T.print
    ~header:[ "n"; "guaranteed no-expiry session (min)" ]
    (List.map
       (fun n ->
         [ string_of_int n; string_of_int (Expiry.never_expire_bound ~n ~gap ~txn_len) ])
       [ 2; 3; 4; 5 ]);
  Printf.printf "\nsmallest n for %d-minute sessions: %d\n" session_len
    (Expiry.versions_needed ~session_len ~gap ~txn_len)

(* ---------- vnl stats ---------- *)

module Obs = Vnl_obs.Obs

(* A small but complete demo workload — initial load, three days of
   on-line refresh with session-consistent reader queries, one GC pass —
   so every instrumented layer (disk, pool, 2VNL core, batch apply,
   maintenance protocol, reader path) contributes to the registry. *)
let run_stats seed format =
  Obs.enabled := true;
  Obs.reset ();
  let rng = Xorshift.create seed in
  let wh = Warehouse.create ~pool_capacity:256 [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.initial_load rng ~days:5 ~sales_per_day:120);
  ignore (Warehouse.refresh wh);
  let analyst =
    "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state"
  in
  for day = 6 to 8 do
    let src = Warehouse.source wh "DailySales" in
    Warehouse.queue_changes wh ~view:"DailySales"
      (Sales_gen.gen_batch rng src ~day ~inserts:70 ~updates:20 ~deletes:10);
    let s = Warehouse.begin_session wh in
    ignore (Warehouse.query wh s analyst);
    ignore (Warehouse.refresh wh);
    (* Second query of the pair: same session, post-refresh — the 2VNL
       guarantee under observation. *)
    ignore (Warehouse.query wh s analyst);
    Warehouse.end_session wh s
  done;
  ignore (Warehouse.collect_garbage wh);
  match format with
  | `Json -> print_string (Obs.to_json ())
  | `Prometheus -> print_string (Obs.to_prometheus ())
  | `Table ->
    print_endline
      "registry after the demo workload (5-day load + 3 on-line refresh days):\n";
    let live f l = List.filter f l in
    T.print ~header:[ "counter"; "value" ]
      (List.map
         (fun c -> [ Obs.Counter.name c; string_of_int (Obs.Counter.get c) ])
         (live (fun c -> Obs.Counter.get c <> 0) (Obs.Registry.counters Obs.Registry.default)));
    print_newline ();
    T.print ~header:[ "gauge"; "value" ]
      (List.map
         (fun g -> [ Obs.Gauge.name g; string_of_int (Obs.Gauge.get g) ])
         (Obs.Registry.gauges Obs.Registry.default));
    T.subsection "per-phase span breakdown";
    T.print
      ~header:[ "phase"; "count"; "total ms"; "mean ms"; "p99 ms" ]
      (List.map
         (fun (name, s) ->
           [
             name;
             string_of_int s.Stats.n;
             Printf.sprintf "%.3f" s.Stats.total;
             Printf.sprintf "%.4f" s.Stats.mean;
             Printf.sprintf "%.3f" s.Stats.p99;
           ])
         (Obs.phase_summaries ()))

(* ---------- vnl serve / vnl load ---------- *)

module Server = Vnl_net.Server
module Load = Vnl_net.Load

(* Flags win; otherwise the hardened VNL_NET_* knobs; otherwise built-in
   defaults.  Env parsing fails loudly on non-numeric/non-positive values
   (Load.env_int / Load.env_float). *)
let or_env_int ?least flag name default =
  match flag with Some v -> v | None -> Load.env_int ?least name default

let or_env_float ?least flag name default =
  match flag with Some v -> v | None -> Load.env_float ?least name default

let run_serve seed port unix_path workers max_sessions churn_every_ms churn_batch
    duration_s =
  let port = or_env_int ~least:0 port "VNL_NET_PORT" 7781 in
  let workers = or_env_int workers "VNL_NET_WORKERS" 2 in
  let max_sessions = or_env_int max_sessions "VNL_NET_MAX_SESSIONS" 1024 in
  let churn_every_ms = or_env_float churn_every_ms "VNL_NET_CHURN_MS" 50.0 in
  let rng = Xorshift.create seed in
  let wh = Warehouse.create ~pool_capacity:512 [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.initial_load rng ~days:5 ~sales_per_day:120);
  ignore (Warehouse.refresh wh);
  let vnl = Warehouse.vnl wh in
  let listen =
    match unix_path with
    | Some path -> Server.Unix_path path
    | None -> Server.Tcp { host = "127.0.0.1"; port }
  in
  let config = { Server.default_config with workers; max_connections = max_sessions } in
  let srv = Server.start ~config listen vnl in
  let stop = Atomic.make false in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Printf.printf
    "serving DailySales on %s: workers=%d max-sessions=%d churn every %gms x %d changes%s\n%!"
    (match listen with
    | Server.Tcp _ -> Printf.sprintf "127.0.0.1:%d" (Server.port srv)
    | Server.Unix_path p -> p)
    workers max_sessions churn_every_ms churn_batch
    (match duration_s with
    | Some d -> Printf.sprintf " for %gs" d
    | None -> " until SIGTERM/SIGINT");
  let t0 = Unix.gettimeofday () in
  let deadline = match duration_s with Some d -> t0 +. d | None -> infinity in
  let day = ref 6 in
  let refreshes = ref 0 in
  while (not (Atomic.get stop)) && Unix.gettimeofday () < deadline do
    (try Unix.sleepf (churn_every_ms /. 1000.0)
     with Unix.Unix_error (EINTR, _, _) -> ());
    if churn_batch > 0 && not (Atomic.get stop) then begin
      let src = Warehouse.source wh "DailySales" in
      Warehouse.queue_changes wh ~view:"DailySales"
        (Sales_gen.gen_batch rng src ~day:!day ~inserts:(churn_batch * 7 / 10)
           ~updates:(churn_batch * 2 / 10) ~deletes:(churn_batch / 10));
      incr day;
      ignore (Warehouse.refresh wh);
      incr refreshes
    end
  done;
  Server.stop srv;
  ignore (Warehouse.collect_garbage wh);
  (* The acceptance check: with every connection closed, every session pin
     must be released — the GC horizon catches up to currentVN. *)
  let current = Twovnl.current_vn vnl in
  let horizon = Twovnl.min_session_vn vnl in
  let leaked = current - horizon in
  Printf.printf
    "stopped after %d maintenance commits: currentVN=%d session horizon=%d (%d leaked pins)\n%!"
    !refreshes current horizon leaked;
  if leaked <> 0 then exit 1

let run_load host port unix_path sessions concurrency rate fetch_size think_ms
    disconnect_prob seed sql =
  let port = or_env_int ~least:0 port "VNL_NET_PORT" 7781 in
  let sessions = or_env_int sessions "VNL_NET_SESSIONS" 200 in
  let concurrency = or_env_int concurrency "VNL_NET_CONCURRENCY" 2 in
  let rate = or_env_float ~least:0.0 rate "VNL_NET_RATE" 0.0 in
  let addr =
    match unix_path with
    | Some path -> Vnl_net.Client.Unix_path path
    | None -> Vnl_net.Client.Tcp (host, port)
  in
  let cfg =
    {
      Load.addr;
      sessions;
      concurrency;
      rate;
      fetch_size;
      think_ms;
      disconnect_prob;
      seed;
      sql = (match sql with Some s -> s | None -> Load.default_sql);
    }
  in
  let r = Load.run cfg in
  T.print ~header:[ "metric"; "value" ]
    [
      [ "sessions attempted"; string_of_int r.Load.l_sessions ];
      [ "completed (orderly Bye)"; string_of_int r.Load.l_completed ];
      [ "abrupt disconnects (intended)"; string_of_int r.Load.l_disconnected ];
      [ "busy-rejected"; string_of_int r.Load.l_busy ];
      [ "shed by server"; string_of_int r.Load.l_shed ];
      [ "expired"; string_of_int r.Load.l_expired ];
      [ "errors"; string_of_int r.Load.l_errors ];
      [ "inconsistent query pairs"; string_of_int r.Load.l_inconsistent ];
      [ "requests"; string_of_int r.Load.l_requests ];
      [ "rows fetched"; string_of_int r.Load.l_rows ];
      [ "late open-loop starts"; string_of_int r.Load.l_late_starts ];
      [ "elapsed s"; Printf.sprintf "%.3f" r.Load.l_elapsed_s ];
      [ "requests/s"; Printf.sprintf "%.0f" r.Load.l_qps ];
      [ "sessions/s"; Printf.sprintf "%.0f" r.Load.l_sessions_per_s ];
      [ "p50 ms"; Printf.sprintf "%.3f" r.Load.l_p50_ms ];
      [ "p99 ms"; Printf.sprintf "%.3f" r.Load.l_p99_ms ];
    ];
  if r.Load.l_inconsistent > 0 then begin
    Printf.eprintf
      "FAIL: %d query pairs disagreed within one session without expiry\n%!"
      r.Load.l_inconsistent;
    exit 1
  end

(* ---------- cmdliner wiring ---------- *)

open Cmdliner

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic workload seed.")

let verbose_term =
  let setup verbose =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
    end
  in
  Term.(const setup $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log 2VNL core events."))

let shell_cmd =
  let doc = "Interactive SQL shell over a demo 2VNL/nVNL warehouse." in
  let n_term =
    Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"Versions per tuple (nVNL).")
  in
  Cmd.v (Cmd.info "shell" ~doc)
    Term.(const (fun () seed n -> run_shell seed n) $ verbose_term $ seed_term $ n_term)

let scenario_cmd =
  let doc = "Run a warehouse operating-mode simulation (Figures 1-2)." in
  let mode =
    let parse = function
      | "offline" -> Ok Scenario.Offline
      | "dirty" -> Ok Scenario.Dirty
      | s -> (
        match int_of_string_opt s with
        | Some n when n >= 2 -> Ok (Scenario.Online n)
        | _ -> Error (`Msg "expected offline, dirty, or an integer n >= 2 (nVNL)"))
    in
    let print ppf m = Format.pp_print_string ppf (Scenario.mode_name m) in
    Arg.conv (parse, print)
  in
  let mode_term =
    Arg.(value & opt mode (Scenario.Online 2)
         & info [ "mode" ] ~docv:"MODE" ~doc:"offline, dirty, or n (nVNL with n versions).")
  in
  let days = Arg.(value & opt int 3 & info [ "days" ] ~docv:"DAYS" ~doc:"Simulated days.") in
  let batch =
    Arg.(value & opt int 300 & info [ "batch" ] ~docv:"N" ~doc:"Source changes per day.")
  in
  Cmd.v (Cmd.info "scenario" ~doc) Term.(const run_scenario $ mode_term $ days $ batch)

let blocking_cmd =
  let doc = "Compare reader/writer blocking across CC schemes (S2PL, 2V2PL, MV2PL, 2VNL)." in
  let readers =
    Arg.(value & opt int 40 & info [ "readers" ] ~docv:"N" ~doc:"Concurrent reader transactions.")
  in
  let writer_items =
    Arg.(value & opt int 60 & info [ "writer-items" ] ~docv:"N" ~doc:"Items the writer updates.")
  in
  Cmd.v (Cmd.info "blocking" ~doc) Term.(const run_blocking $ readers $ writer_items)

let expiry_cmd =
  let doc = "Evaluate the nVNL no-expiry guarantee for a maintenance pattern." in
  let gap = Arg.(value & opt int 60 & info [ "gap" ] ~docv:"MIN" ~doc:"Gap between transactions.") in
  let txn_len =
    Arg.(value & opt int 1380 & info [ "txn-len" ] ~docv:"MIN" ~doc:"Maintenance duration.")
  in
  let session =
    Arg.(value & opt int 100 & info [ "session" ] ~docv:"MIN" ~doc:"Target session length.")
  in
  Cmd.v (Cmd.info "expiry" ~doc) Term.(const run_expiry $ gap $ txn_len $ session)

let stats_cmd =
  let doc =
    "Run a demo warehouse workload with observability on and report the metric \
     registry (counters, gauges, per-phase span breakdown)."
  in
  let format_term =
    let json =
      Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON (Obs.to_json).")
    in
    let prometheus =
      Arg.(value & flag
           & info [ "prometheus" ] ~doc:"Emit Prometheus text exposition (Obs.to_prometheus).")
    in
    Term.(
      const (fun json prometheus ->
          if json then `Json else if prometheus then `Prometheus else `Table)
      $ json $ prometheus)
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run_stats $ seed_term $ format_term)

let unix_term =
  Arg.(value & opt (some string) None
       & info [ "unix" ] ~docv:"PATH" ~doc:"Use a Unix-domain socket at $(docv) instead of TCP.")

let port_term =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port (0 binds an ephemeral one); default \\$VNL_NET_PORT or 7781.")

let serve_cmd =
  let doc =
    "Serve the demo DailySales warehouse over the wire protocol while a \
     maintainer churns it (on-line refresh every --churn-every ms), until \
     --duration elapses or SIGTERM/SIGINT.  Exits non-zero if any session \
     pin is still held after shutdown (a leaked epoch pin)."
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains; default \\$VNL_NET_WORKERS or 2.")
  in
  let max_sessions =
    Arg.(value & opt (some int) None
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Admission-control connection cap; default \\$VNL_NET_MAX_SESSIONS or 1024.")
  in
  let churn_every =
    Arg.(value & opt (some float) None
         & info [ "churn-every" ] ~docv:"MS"
             ~doc:"Maintenance refresh period; default \\$VNL_NET_CHURN_MS or 50.")
  in
  let churn_batch =
    Arg.(value & opt int 50
         & info [ "churn-batch" ] ~docv:"N" ~doc:"Source changes per refresh (0 = no churn).")
  in
  let duration =
    Arg.(value & opt (some float) None
         & info [ "duration" ] ~docv:"S" ~doc:"Stop after $(docv) seconds (default: run until signal).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ seed_term $ port_term $ unix_term $ workers $ max_sessions
      $ churn_every $ churn_batch $ duration)

let load_cmd =
  let doc =
    "Open-loop load generator: a population of short-lived reader sessions \
     (connect/hello/query-pair/fetch/bye) with optional abrupt mid-cursor \
     disconnects, against a running $(b,vnl serve).  Exits non-zero on any \
     within-session inconsistency."
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let sessions =
    Arg.(value & opt (some int) None
         & info [ "sessions" ] ~docv:"N" ~doc:"Session lifecycles; default \\$VNL_NET_SESSIONS or 200.")
  in
  let concurrency =
    Arg.(value & opt (some int) None
         & info [ "concurrency" ] ~docv:"N"
             ~doc:"Generator domains; default \\$VNL_NET_CONCURRENCY or 2.")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"PER_S"
             ~doc:"Open-loop session arrivals per second (0 = unpaced); default \\$VNL_NET_RATE or 0.")
  in
  let fetch_size =
    Arg.(value & opt int 64 & info [ "fetch-size" ] ~docv:"ROWS" ~doc:"Rows per Fetch request.")
  in
  let think_ms =
    Arg.(value & opt float 0.0
         & info [ "think-ms" ] ~docv:"MS" ~doc:"Client stall between fetches (slow client).")
  in
  let disconnect_prob =
    Arg.(value & opt float 0.0
         & info [ "disconnect-prob" ] ~docv:"P"
             ~doc:"Probability a session vanishes abruptly mid-cursor.")
  in
  let sql =
    Arg.(value & opt (some string) None
         & info [ "sql" ] ~docv:"SELECT" ~doc:"Statement for the query pair (default: demo roll-up).")
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const run_load $ host $ port_term $ unix_term $ sessions $ concurrency $ rate
      $ fetch_size $ think_ms $ disconnect_prob $ seed_term $ sql)

let () =
  let doc = "2VNL on-line warehouse view maintenance (Quass & Widom, SIGMOD 1997)" in
  let info = Cmd.info "vnl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ shell_cmd; scenario_cmd; blocking_cmd; expiry_cmd; stats_cmd; serve_cmd; load_cmd ]))
