(* CATALOG: the cost of online schema evolution.

   Free-running reader domains hammer session-consistent reads and SQL
   over one view while the maintainer commits a sequence of ALTER TABLE
   .. ADD COLUMN evolutions (each stages a new catalog generation, copies
   the table, and publishes with the version).  Reader throughput is
   sampled in three windows — before, during, and after the evolutions —
   and each evolve's commit latency is measured.  Every read is
   consistency-checked: with only add_column evolutions, a session pinned
   to generation g must see exactly base_arity + g columns, and two reads
   in one session must agree.

   Results go to BENCH_catalog.json; compare.ml gates totals.dip_ratio
   (during-evolution reader throughput over baseline, --catalog-floor)
   and hard-zeroes totals.inconsistent.  The dip floor is the point: an
   evolution that starts blocking readers (a global catalog latch, a
   stop-the-world copy) collapses the during-window to ~0 and must fail
   loudly, not warn.

   Knobs: VNL_CATALOG_READERS (reader domains), VNL_CATALOG_WINDOW_MS. *)

module Warehouse = Vnl_warehouse.Warehouse
module Sales_gen = Vnl_workload.Sales_gen
module Twovnl = Vnl_core.Twovnl
module Schema = Vnl_relation.Schema
module Dtype = Vnl_relation.Dtype
module Value = Vnl_relation.Value
module Tuple = Vnl_relation.Tuple
module Xorshift = Vnl_util.Xorshift
module Obs = Vnl_obs.Obs
module Load = Vnl_net.Load

let phase_baseline = 0

let phase_during = 1

let phase_post = 2

let phase_stop = 3

let write_json ~readers ~evolutions ~qps ~dip_ratio ~inconsistent ~retired ~generation =
  let oc = open_out "BENCH_catalog.json" in
  let entry (gen, what, ms) =
    Printf.sprintf "    {\"gen\": %d, \"what\": \"%s\", \"evolve_ms\": %.3f}" gen what ms
  in
  let lats = List.map (fun (_, _, ms) -> ms) evolutions in
  let mean = List.fold_left ( +. ) 0.0 lats /. float_of_int (max 1 (List.length lats)) in
  let worst = List.fold_left max 0.0 lats in
  let b, d, p = qps in
  Printf.fprintf oc
    "{\n\
    \  \"description\": \"online schema evolution: reader-domain throughput sampled \
     before/during/after a sequence of ADD COLUMN catalog generations, each evolve's \
     commit latency measured; reads consistency-checked against the session's pinned \
     generation (arity = base + generation)\",\n\
    \  \"evolutions\": [\n%s\n  ],\n\
    \  \"totals\": {\"readers\": %d, \"baseline_qps\": %.0f, \"during_qps\": %.0f, \
     \"post_qps\": %.0f, \"dip_ratio\": %.3f, \"evolve_ms_mean\": %.3f, \
     \"evolve_ms_max\": %.3f, \"inconsistent\": %d, \"generations_retired\": %d, \
     \"final_generation\": %d},\n\
    \  \"phases\": %s\n\
     }\n"
    (String.concat ",\n" (List.map entry evolutions))
    readers b d p dip_ratio mean worst inconsistent retired generation
    (Obs.phases_json ());
  close_out oc

let run () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  Obs.enabled := true;
  Obs.reset ();
  print_endline "\n==============================================================";
  print_endline "=== CATALOG  online schema evolution under reader load     ===";
  print_endline "==============================================================";
  let readers = Load.env_int "VNL_CATALOG_READERS" 4 in
  let window_s =
    Load.env_float ~least:10.0 "VNL_CATALOG_WINDOW_MS" (if smoke then 150.0 else 1000.0)
    /. 1000.0
  in
  let n_evolutions = if smoke then 2 else 4 in
  let rng = Xorshift.create 23 in
  let wh = Warehouse.create ~n:3 ~pool_capacity:512 [ Sales_gen.daily_sales_view () ] in
  Warehouse.queue_changes wh ~view:"DailySales"
    (Sales_gen.initial_load rng ~days:5 ~sales_per_day:(if smoke then 60 else 300));
  ignore (Warehouse.refresh wh);
  let vnl = Warehouse.vnl wh in
  let base_arity =
    let s = Warehouse.begin_session wh in
    let arity =
      match Warehouse.read_view wh s "DailySales" with
      | [] -> failwith "exp_catalog: empty view"
      | t :: _ -> Tuple.arity t
    in
    Warehouse.end_session wh s;
    arity
  in
  let phase = Atomic.make phase_baseline in
  let counts = Array.init 3 (fun _ -> Atomic.make 0) in
  let inconsistent = Atomic.make 0 in
  let reader_domains =
    List.init readers (fun i ->
        Domain.spawn (fun () ->
            ignore i;
            while Atomic.get phase <> phase_stop do
              let ph = Atomic.get phase in
              let s = Warehouse.begin_session wh in
              (try
                 let gen = Twovnl.Session.generation vnl s in
                 let rows = Warehouse.read_view wh s "DailySales" in
                 let want = base_arity + gen in
                 List.iter
                   (fun t -> if Tuple.arity t <> want then Atomic.incr inconsistent)
                   rows;
                 (* The query pair: SQL through the per-generation plan
                    cache must agree with the engine-level read. *)
                 let r = Warehouse.query wh s "SELECT COUNT(*) FROM DailySales" in
                 (match r.Vnl_query.Plan.rows with
                 | [ [ Value.Int c ] ] ->
                   if c <> List.length rows then Atomic.incr inconsistent
                 | _ -> Atomic.incr inconsistent);
                 if ph < 3 then Atomic.incr counts.(ph)
               with Twovnl.Expired _ -> ());
              Warehouse.end_session wh s
            done))
  in
  let window ph f =
    Atomic.set phase ph;
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let baseline_s = window phase_baseline (fun () -> Unix.sleepf window_s) in
  let evolutions = ref [] in
  let during_s =
    window phase_during (fun () ->
        let gap = window_s /. float_of_int (n_evolutions + 1) in
        for i = 0 to n_evolutions - 1 do
          Unix.sleepf gap;
          let name = Printf.sprintf "extra%d" i in
          let t0 = Unix.gettimeofday () in
          Warehouse.evolve wh
            [
              Warehouse.Add_column
                {
                  view = "DailySales";
                  attr = Schema.attr ~updatable:true name Dtype.Int;
                  default = Value.Int i;
                };
            ];
          let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          evolutions := (i + 1, "add_column " ^ name, ms) :: !evolutions
        done;
        Unix.sleepf gap)
  in
  let post_s = window phase_post (fun () -> Unix.sleepf window_s) in
  Atomic.set phase phase_stop;
  List.iter Domain.join reader_domains;
  ignore (Warehouse.collect_garbage wh);
  let retired_gens =
    Obs.Counter.get (Obs.Registry.counter "twovnl.generations_retired")
  in
  let qps i s = float_of_int (Atomic.get counts.(i)) /. s in
  let b = qps 0 baseline_s and d = qps 1 during_s and p = qps 2 post_s in
  let dip_ratio = if b > 0.0 then d /. b else 0.0 in
  let evolutions = List.rev !evolutions in
  print_endline "+----------+-----------+---------------+";
  print_endline "| window   | seconds   | reader qps    |";
  print_endline "+----------+-----------+---------------+";
  Printf.printf "| baseline | %-9.3f | %-13.0f |\n" baseline_s b;
  Printf.printf "| during   | %-9.3f | %-13.0f |\n" during_s d;
  Printf.printf "| post     | %-9.3f | %-13.0f |\n" post_s p;
  print_endline "+----------+-----------+---------------+";
  List.iter
    (fun (gen, what, ms) -> Printf.printf "  gen %d: %-20s %.3f ms\n" gen what ms)
    evolutions;
  let generation = Warehouse.catalog_generation wh in
  write_json ~readers ~evolutions ~qps:(b, d, p) ~dip_ratio
    ~inconsistent:(Atomic.get inconsistent) ~retired:retired_gens ~generation;
  Printf.printf
    "-> %d evolutions to generation %d under %d reader domains; during/baseline \
     throughput ratio %.2f; %d inconsistent reads; %d generations retired by GC; \
     results written to BENCH_catalog.json.\n"
    n_evolutions generation readers dip_ratio (Atomic.get inconsistent) retired_gens;
  if Atomic.get inconsistent > 0 then
    failwith "exp_catalog: inconsistent reads during evolution"
