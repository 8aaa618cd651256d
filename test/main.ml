(* Test entry point aggregating all suites. *)

let () =
  Alcotest.run "vnl"
    [
      ("util", Test_util.suite);
      ("epoch", Test_epoch.suite);
      ("relation", Test_relation.suite);
      ("storage", Test_storage.suite);
      ("index", Test_index.suite);
      ("sql", Test_sql.suite);
      ("sql-fuzz", Test_sql_fuzz.suite);
      ("query", Test_query.suite);
      ("plan", Test_plan.suite);
      ("indexing", Test_indexing.suite);
      ("core", Test_core.suite);
      ("core-props", Test_core_props.suite);
      ("rewrite", Test_rewrite.suite);
      ("twovnl", Test_twovnl.suite);
      ("batch", Test_batch.suite);
      ("txn", Test_txn.suite);
      ("properties", Test_props.suite);
      ("warehouse", Test_warehouse.suite);
      ("workload", Test_workload.suite);
      ("recovery", Test_recovery.suite);
      ("faults", Test_faults.suite);
      ("abort", Test_abort.suite);
      ("obs", Test_obs.suite);
      ("nvnl", Test_nvnl.suite);
      ("pipeline", Test_pipeline.suite);
      ("parallel", Test_parallel.suite);
      ("parallel-stress", Test_parallel_stress.suite);
      ("net", Test_net.suite);
      ("catalog-evolve", Test_catalog_evolve.suite);
      ("reader-path", Test_reader_path.suite);
      ("durability", Test_durability.suite);
      ("refresh", Test_refresh.suite);
    ]
