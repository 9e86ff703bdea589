let () =
  Alcotest.run "regpromo"
    [
      ("vec", Suite_vec.suite);
      ("ir", Suite_ir.suite);
      ("analysis", Suite_analysis.suite);
      ("ssa", Suite_ssa.suite);
      ("checkers", Suite_checkers.suite);
      ("incremental", Suite_incremental.suite);
      ("minic", Suite_minic.suite);
      ("interp", Suite_interp.suite);
      ("interp2", Suite_interp2.suite);
      ("engine", Suite_engine.suite);
      ("opt", Suite_opt.suite);
      ("opt2", Suite_opt2.suite);
      ("promote", Suite_promote.suite);
      ("web_info", Suite_web_info.suite);
      ("occ_index", Suite_occ_index.suite);
      ("regalloc", Suite_regalloc.suite);
      ("pressure", Suite_pressure.suite);
      ("codecs", Suite_codecs.suite);
      ("baseline", Suite_baseline.suite);
      ("workloads", Suite_workloads.suite);
      ("obs", Suite_obs.suite);
      ("more", Suite_more.suite);
      ("properties", Suite_qcheck.suite);
      ("par", Suite_par.suite);
      ("serve", Suite_serve.suite);
      ("scalrep", Suite_scalrep.suite);
      ("serve_e2e", Suite_serve_e2e.suite);
      ("webs", Suite_webs.suite);
      ("fingerprint", Suite_fingerprint.suite);
      ("construct", Suite_construct_oracle.suite);
      ("cleanup", Suite_cleanup.suite);
    ]
