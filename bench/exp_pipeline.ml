(* PIPELINE: maintainer-side scaling of pipelined parallel refresh.

   The mirror of exp_parallel: fix the maintenance work (a pre-generated
   sequence of refresh batches, identical across configurations) and
   measure how fast it drains.  The base row (workers = 0, run as 1)
   pushes every batch through its own one-stripe refresh round
   ({!Vnl_warehouse.Warehouse.refresh}: classify, flag, apply, targeted
   flush, publish).  The k-worker rows admit a window of up to k queued
   batches per round: the round nets the window's changes (each hot group
   resolved, written, and flushed once instead of once per batch),
   partitions them into dependency-disjoint stripes
   ({!Vnl_core.Sched_batch}) applied by k workers under nVNL (n = k + 1),
   each stripe flushing only the pages it wrote and saving the catalog
   only when its heap grew, VNs published strictly in order — so readers
   still see intermediate consistent states while the window drains, which
   a single fat batch cannot offer.  One reader domain runs the
   consistency-checked Example 2.1 pair throughout, so every row also
   certifies that no mixed-version read slipped through while stripes were
   publishing.

   Results go to BENCH_pipeline.json; compare.ml gates the k = 4 row's
   speedup with --pipeline-floor. *)

module Parallel = Vnl_workload.Parallel
module Obs = Vnl_obs.Obs

let worker_counts = [ 0; 1; 2; 4 ]

let write_json (reports : Parallel.pipeline_report list) ~base =
  let oc = open_out "BENCH_pipeline.json" in
  let entry (r : Parallel.pipeline_report) =
    Printf.sprintf
      "    {\"workers\": %d, \"refreshes_per_s\": %.1f, \"ops_per_s\": %.0f, \
       \"speedup\": %.2f, \"rounds\": %d, \"stripes\": %d, \"reader_queries\": %d, \
       \"expired\": %d, \"inconsistent\": %d, \"elapsed_s\": %.3f}"
      r.p_workers r.p_refreshes_per_s r.p_ops_per_s
      (if base > 0.0 then r.p_refreshes_per_s /. base else 0.0)
      r.p_rounds r.p_stripes r.p_reader_queries r.p_expired r.p_inconsistent r.p_elapsed_s
  in
  Printf.fprintf oc
    "{\n\
    \  \"description\": \"pipelined parallel maintenance: identical refresh batches drained \
     one per one-stripe round (workers=0, run as 1) vs netted k-batch windows as k-stripe \
     nVNL rounds at n=k+1; one concurrent reader domain consistency-checks every Example \
     2.1 pair\",\n\
    \  \"scaling\": [\n%s\n  ],\n\
    \  \"phases\": %s\n\
     }\n"
    (String.concat ",\n" (List.map entry reports))
    (Obs.phases_json ());
  close_out oc

let run () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  Obs.enabled := true;
  Obs.reset ();
  print_endline "\n=============================================================";
  print_endline "=== PIPELINE  one-batch rounds vs k-batch k-stripe rounds ====";
  print_endline "=============================================================";
  let config workers =
    {
      Parallel.default_pipeline_config with
      workers;
      (* Even the full workload drains in well under a second per
         configuration, so smoke keeps the real batch size — a toy batch
         flattens the netting win the CI floor gate exists to watch. *)
      rounds = (if smoke then 24 else 40);
      readers = 1;
      days = 4;
      batch_size = 1000;
      n = max 2 (workers + 1);
      pool_capacity = 512;
      seed = 11;
    }
  in
  let reports = List.map (fun w -> Parallel.run_pipeline (config w)) worker_counts in
  let base = (List.hd reports).Parallel.p_refreshes_per_s in
  print_endline
    "+---------+------------+-----------+---------+---------+---------+--------------+";
  print_endline
    "| workers | refresh/s  | ops/s     | speedup | stripes | queries | inconsistent |";
  print_endline
    "+---------+------------+-----------+---------+---------+---------+--------------+";
  List.iter
    (fun (r : Parallel.pipeline_report) ->
      Printf.printf "| %7s | %10.1f | %9.0f | %6.2fx | %7d | %7d | %12d |\n"
        (if r.p_workers = 0 then "base" else string_of_int r.p_workers)
        r.p_refreshes_per_s r.p_ops_per_s
        (if base > 0.0 then r.p_refreshes_per_s /. base else 0.0)
        r.p_stripes r.p_reader_queries r.p_inconsistent)
    reports;
  print_endline
    "+---------+------------+-----------+---------+---------+---------+--------------+";
  let bad =
    List.fold_left (fun acc (r : Parallel.pipeline_report) -> acc + r.p_inconsistent) 0 reports
  in
  if bad > 0 then
    failwith (Printf.sprintf "exp_pipeline: %d inconsistent query pairs observed" bad);
  write_json reports ~base;
  Printf.printf
    "-> identical batches drained under every configuration with zero inconsistent\n\
    \   reader pairs; results written to BENCH_pipeline.json.\n"
