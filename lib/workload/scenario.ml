module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Xorshift = Vnl_util.Xorshift
module Twovnl = Vnl_core.Twovnl
module Warehouse = Vnl_warehouse.Warehouse
module Summary = Vnl_warehouse.Summary
module Plan = Vnl_query.Plan

type mode = Offline | Online of int | Dirty

let mode_name = function
  | Offline -> "offline (Figure 1)"
  | Online n -> Printf.sprintf "%dVNL on-line (Figure 2)" n
  | Dirty -> "read-uncommitted"

type commit_policy = Scheduled | When_quiescent

type config = {
  days : int;
  maintenance_start : int;
  maintenance_len : int;
  runs_per_day : int;
  batch_per_day : int;
  session_every : int;
  session_len : int;
  query_every : int;
  commit_policy : commit_policy;
  seed : int;
}

let default_config =
  {
    days = 3;
    maintenance_start = 9 * 60;
    maintenance_len = 23 * 60;
    runs_per_day = 1;
    batch_per_day = 300;
    session_every = 45;
    session_len = 100;
    query_every = 10;
    commit_policy = Scheduled;
    seed = 7;
  }

type report = {
  mode : mode;
  sessions_started : int;
  sessions_completed : int;
  sessions_rejected : int;
  sessions_expired : int;
  queries_executed : int;
  inconsistent_pairs : int;
  reader_minutes_available : int;
  total_minutes : int;
  maintenance_runs : int;
  commit_wait_minutes : int;
  avg_staleness_minutes : float;
  maintenance_hours : bool array;
  session_hours : int array;
  final_view_groups : int;
  view_matches_source : bool;
}

let view_name = "DailySales"

let chunk_list k xs =
  if k <= 0 then [ xs ]
  else begin
    let rec go acc current count = function
      | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
      | x :: rest ->
        if count = k then go (List.rev current :: acc) [ x ] 1 rest
        else go acc (x :: current) (count + 1) rest
    in
    go [] [] 0 xs
  end

(* The analyst query pair of Example 2.1: a city's total, then (after the
   analyst has studied the first answer) its product-line drill-down.  SQL
   versions for 2VNL and read-uncommitted; an engine-extraction version for
   nVNL (the paper gives SQL rewrite only for n = 2).  The city is a named
   parameter, so every execution of either statement — any session, any
   city — shares one cached plan instead of re-parsing and re-rewriting
   per call. *)
let sql_total query city =
  match
    (query
       ~params:[ ("city", Value.Str city) ]
       "SELECT SUM(total_sales) FROM DailySales WHERE city = :city")
      .Plan.rows
  with
  | [ [ Value.Int n ] ] -> n
  | [ [ Value.Null ] ] -> 0
  | _ -> 0

let sql_drill_total query city =
  let rows =
    (query
       ~params:[ ("city", Value.Str city) ]
       "SELECT product_line, SUM(total_sales) FROM DailySales WHERE city = :city \
        GROUP BY product_line")
      .Plan.rows
  in
  List.fold_left
    (fun acc row -> match row with [ _; Value.Int n ] -> acc + n | _ -> acc)
    0 rows

let view_total rows city =
  List.fold_left
    (fun acc t ->
      match (Tuple.get t 0, Tuple.get t 4) with
      | Value.Str c, Value.Int n when String.equal c city -> acc + n
      | _ -> acc)
    0 rows

let run cfg mode =
  let sim = Simulator.create () in
  let rng = Xorshift.create cfg.seed in
  let n = match mode with Online n -> n | Offline | Dirty -> 2 in
  let wh = Warehouse.create ~n ~pool_capacity:256 [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:view_name
    (Sales_gen.initial_load rng ~days:3 ~sales_per_day:80);
  ignore (Warehouse.refresh wh);

  let total_minutes = cfg.days * 24 * 60 in
  let closed = ref false in
  let closed_minutes = ref 0 in
  let active_sessions = ref 0 in
  let commit_wait_minutes = ref 0 in
  let staleness_samples = ref [] in
  let last_window_start = ref 0 in
  let sessions_started = ref 0
  and sessions_completed = ref 0
  and sessions_rejected = ref 0
  and sessions_expired = ref 0
  and queries_executed = ref 0
  and inconsistent_pairs = ref 0
  and maintenance_runs = ref 0 in
  let maintenance_spans = ref [] and session_spans = ref [] in

  let txn_open = ref false in
  let maintenance_run d () =
    (* A starved previous transaction pushes the next one back; re-check
       after waking, since several queued days can wake on the same flip. *)
    let rec acquire () =
      Simulator.await (fun () -> not !txn_open);
      if !txn_open then acquire () else txn_open := true
    in
    acquire ();
    let t_begin = Simulator.now sim in
    if mode = Offline then closed := true;
    let src = Warehouse.source wh view_name in
    let share = max 1 (cfg.batch_per_day / max 1 cfg.runs_per_day) in
    let inserts = share * 7 / 10 in
    let updates = share * 2 / 10 in
    let deletes = max 0 (share - inserts - updates) in
    Warehouse.queue_changes wh ~view:view_name
      (Sales_gen.gen_batch rng src ~day:(d + 3) ~inserts ~updates ~deletes);
    let batch = Warehouse.take_pending wh ~view:view_name in
    let txn = Twovnl.Txn.begin_ (Warehouse.vnl wh) in
    let nchunks = 60 in
    let per_chunk = max 1 (List.length batch / nchunks) in
    let chunks = chunk_list per_chunk batch in
    let step = max 1 (cfg.maintenance_len / max 1 (List.length chunks)) in
    List.iter
      (fun chunk ->
        ignore (Summary.apply_batch txn (Warehouse.view wh view_name) chunk);
        Simulator.delay step)
      chunks;
    let elapsed = Simulator.now sim - t_begin in
    if elapsed < cfg.maintenance_len then Simulator.delay (cfg.maintenance_len - elapsed);
    (match cfg.commit_policy with
    | Scheduled -> ()
    | When_quiescent ->
      let t0 = Simulator.now sim in
      Simulator.await (fun () -> !active_sessions = 0);
      commit_wait_minutes := !commit_wait_minutes + (Simulator.now sim - t0));
    Twovnl.Txn.commit txn;
    txn_open := false;
    incr maintenance_runs;
    (* The batch accumulated since the previous run began; its mean age at
       commit is commit - midpoint of the accumulation window. *)
    let commit_time = Simulator.now sim in
    staleness_samples :=
      (float_of_int commit_time -. (float_of_int (!last_window_start + t_begin) /. 2.0))
      :: !staleness_samples;
    last_window_start := t_begin;
    if mode = Offline then begin
      closed := false;
      closed_minutes := !closed_minutes + (Simulator.now sim - t_begin)
    end;
    maintenance_spans := (t_begin, Simulator.now sim) :: !maintenance_spans
  in

  (* Read-uncommitted sessions bypass Session.query (they fabricate a
     sessionVN), so they keep their own small plan cache: parse + rewrite +
     compile once per statement, re-execute closures thereafter. *)
  let dirty_plans = Hashtbl.create 4 in
  let dirty_query ~params sql =
    let vnl = Warehouse.vnl wh in
    let active = Vnl_core.Version_state.maintenance_active (Twovnl.version_state vnl) in
    let vn = Twovnl.current_vn vnl + if active then 1 else 0 in
    let plan =
      match Hashtbl.find_opt dirty_plans sql with
      | Some p when Plan.valid (Warehouse.database wh) p -> p
      | Some _ | None ->
        let p =
          Plan.prepare (Warehouse.database wh)
            (Vnl_core.Rewrite.reader_select ~lookup:(Twovnl.lookup vnl)
               (Vnl_sql.Parser.parse_select sql))
        in
        Hashtbl.replace dirty_plans sql p;
        p
    in
    Plan.execute ~params:(("sessionVN", Value.Int vn) :: params) plan
  in

  let session () =
    if !closed then incr sessions_rejected
    else begin
      incr sessions_started;
      incr active_sessions;
      let t_begin = Simulator.now sim in
      let deadline = t_begin + cfg.session_len in
      let s = match mode with Dirty -> None | Offline | Online _ -> Some (Warehouse.begin_session wh) in
      let outcome = ref `Completed in
      let think = 3 in
      (try
         while Simulator.now sim < deadline && !outcome = `Completed do
           if mode = Offline && !closed then raise Exit;
           let city, _ = Xorshift.pick rng Sales_gen.cities in
           (* First query, a pause while the analyst studies it, then the
              drill-down; consistency demands they agree (Example 2.1). *)
           let total, drill_total =
             match (s, mode) with
             | Some session, Online n when n > 2 ->
               let t = view_total (Warehouse.read_view wh session view_name) city in
               Simulator.delay think;
               if mode = Offline && !closed then raise Exit;
               let d = view_total (Warehouse.read_view wh session view_name) city in
               (t, d)
             | Some session, _ ->
               let prepared ~params sql = Warehouse.query ~params wh session sql in
               let t = sql_total prepared city in
               Simulator.delay think;
               if mode = Offline && !closed then raise Exit;
               let d = sql_drill_total prepared city in
               (t, d)
             | None, _ ->
               let t = sql_total dirty_query city in
               Simulator.delay think;
               let d = sql_drill_total dirty_query city in
               (t, d)
           in
           queries_executed := !queries_executed + 2;
           if total <> drill_total then incr inconsistent_pairs;
           Simulator.delay (max 1 (cfg.query_every - think))
         done
       with
      | Twovnl.Expired _ -> outcome := `Expired
      | Exit -> outcome := `Interrupted);
      (match s with Some session -> Warehouse.end_session wh session | None -> ());
      decr active_sessions;
      (match !outcome with
      | `Completed -> incr sessions_completed
      | `Expired -> incr sessions_expired
      | `Interrupted -> incr sessions_rejected);
      session_spans := (t_begin, Simulator.now sim) :: !session_spans
    end
  in

  let spacing = (24 * 60) / max 1 cfg.runs_per_day in
  for d = 0 to cfg.days - 1 do
    for r = 0 to cfg.runs_per_day - 1 do
      Simulator.spawn sim
        ~at:((d * 24 * 60) + cfg.maintenance_start + (r * spacing))
        ~name:(Printf.sprintf "maintenance-day%d-run%d" d r)
        (maintenance_run d)
    done
  done;
  let rec arrivals k =
    let at = k * cfg.session_every in
    if at < total_minutes then begin
      Simulator.spawn sim ~at ~name:(Printf.sprintf "session-%d" k) session;
      arrivals (k + 1)
    end
  in
  arrivals 0;
  (* Let every spawned maintenance run finish: the last one can begin up to
     maintenance_start + a day after the last arrival, run maintenance_len,
     and (under the quiescent policy) wait out the final sessions. *)
  Simulator.run
    ~until:(total_minutes + cfg.maintenance_start + (2 * cfg.maintenance_len) + cfg.session_len + 30)
    sim;

  let hours = cfg.days * 24 in
  let maintenance_hours = Array.make hours false in
  let session_hours = Array.make hours 0 in
  let mark spans f =
    List.iter
      (fun (a, b) ->
        let h0 = a / 60 and h1 = (b - 1) / 60 in
        for h = h0 to min (hours - 1) h1 do
          f h
        done)
      spans
  in
  mark !maintenance_spans (fun h -> maintenance_hours.(h) <- true);
  mark !session_spans (fun h -> session_hours.(h) <- session_hours.(h) + 1);

  (* Final ground-truth check: a fresh session's view must equal the
     recomputed view over all propagated source data. *)
  let final_session = Warehouse.begin_session wh in
  let final_rows = Warehouse.read_view wh final_session view_name in
  Warehouse.end_session wh final_session;
  let expected = Warehouse.expected_view wh view_name in
  let sorted rows = List.sort Tuple.compare rows in
  let matches = List.equal Tuple.equal (sorted final_rows) (sorted expected) in
  {
    mode;
    sessions_started = !sessions_started;
    sessions_completed = !sessions_completed;
    sessions_rejected = !sessions_rejected;
    sessions_expired = !sessions_expired;
    queries_executed = !queries_executed;
    inconsistent_pairs = !inconsistent_pairs;
    reader_minutes_available = total_minutes - !closed_minutes;
    total_minutes;
    maintenance_runs = !maintenance_runs;
    commit_wait_minutes = !commit_wait_minutes;
    avg_staleness_minutes = Vnl_util.Stats.mean !staleness_samples;
    maintenance_hours;
    session_hours;
    final_view_groups = List.length final_rows;
    view_matches_source = matches;
  }

let availability r =
  if r.total_minutes = 0 then 0.0
  else float_of_int r.reader_minutes_available /. float_of_int r.total_minutes

let render_timeline r =
  let hours = Array.length r.maintenance_hours in
  let days = hours / 24 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "        0    3    6    9    12   15   18   21   24\n";
  Buffer.add_string buf "        |    |    |    |    |    |    |    |    |\n";
  for d = 0 to days - 1 do
    Buffer.add_string buf (Printf.sprintf "day %d M " d);
    for h = 0 to 23 do
      let idx = (d * 24) + h in
      Buffer.add_string buf (if idx < hours && r.maintenance_hours.(idx) then "#" else ".");
      if h mod 3 = 2 then Buffer.add_char buf ' '
    done;
    Buffer.add_char buf '\n';
    Buffer.add_string buf "      R ";
    for h = 0 to 23 do
      let idx = (d * 24) + h in
      let k = if idx < hours then r.session_hours.(idx) else 0 in
      Buffer.add_string buf
        (if k = 0 then "." else if k < 10 then string_of_int k else "+");
      if h mod 3 = 2 then Buffer.add_char buf ' '
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "        (M: maintenance transaction active, R: concurrent reader sessions)";
  Buffer.contents buf
