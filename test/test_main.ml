(* Aggregates every suite; `dune runtest` runs them all. *)

let () =
  Alcotest.run "pte-lease"
    (Test_rng.suite @ Test_stats.suite @ Test_table.suite
   @ Test_campaign.suite
   @ Test_guard.suite @ Test_valuation.suite @ Test_flow_reset.suite
   @ Test_automaton.suite @ Test_wellformed.suite @ Test_trace.suite
   @ Test_executor.suite @ Test_export.suite
   @ Test_elaboration.suite @ Test_crc.suite @ Test_loss.suite
   @ Test_network.suite @ Test_sched.suite @ Test_transport.suite
   @ Test_adapt.suite
   @ Test_constraints.suite
   @ Test_synthesis.suite
   @ Test_monitor.suite @ Test_monitor_reference.suite @ Test_pattern.suite
   @ Test_multi.suite @ Test_sequencing.suite
   @ Test_compliance.suite
   @ Test_engine.suite @ Test_dbm.suite @ Test_mc.suite
   @ Test_tracheotomy.suite @ Test_scenarios.suite @ Test_faults.suite
   @ Test_rare.suite
   @ Test_integration.suite @ Test_lint.suite)
