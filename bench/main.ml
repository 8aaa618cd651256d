(* Benchmark and experiment harness.

   `dune exec bench/main.exe` regenerates every figure, table, and worked
   example in the paper plus quantitative versions of its §6 cost claims;
   see DESIGN.md §2 for the experiment index and EXPERIMENTS.md for the
   recorded results.

   Options:
     --micro        run only the Bechamel microbenchmarks
     --no-micro     run everything except the microbenchmarks
     --smoke        with --micro: run each micro workload once, no sampling
                    (what the @bench-smoke dune alias builds on)
     --only IDS     comma-separated group ids (figures, scenarios, storage,
                    io, batch, blocking, expiry, gc, ablation, indexing,
                    faults, parallel, pipeline, net, catalog, micro) *)

let groups : (string * (unit -> unit)) list =
  [
    ("figures", Exp_figures.run);
    ("scenarios", Exp_scenarios.run);
    ("storage", Exp_storage.run);
    ("io", Exp_io.run);
    ("batch", Exp_batch.run);
    ("blocking", Exp_blocking.run);
    ("expiry", Exp_expiry.run);
    ("gc", Exp_gc_rollback.run);
    ("ablation", Exp_ablation.run);
    ("indexing", Exp_indexing.run);
    ("faults", Exp_faults.run);
    ("parallel", Exp_parallel.run);
    ("pipeline", Exp_pipeline.run);
    ("net", Exp_net.run);
    ("catalog", Exp_catalog.run);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let micro_only = List.mem "--micro" args in
  let no_micro = List.mem "--no-micro" args in
  let only =
    let rec find = function
      | "--only" :: ids :: _ -> Some (String.split_on_char ',' ids)
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let selected id = match only with None -> true | Some ids -> List.mem id ids in
  print_endline "2VNL reproduction: experiment harness";
  print_endline "(On-Line Warehouse View Maintenance, Quass & Widom, SIGMOD 1997)";
  if not micro_only then List.iter (fun (id, f) -> if selected id then f ()) groups;
  let want_micro =
    micro_only
    || ((not no_micro) && match only with None -> true | Some ids -> List.mem "micro" ids)
  in
  if want_micro then Micro.run ~smoke_only:(List.mem "--smoke" args) ();
  print_endline "\nAll selected experiments completed."
