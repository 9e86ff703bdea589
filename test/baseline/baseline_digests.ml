(* Print the golden digests of the loop-based baseline, one line per
   workload and one for the random-program sample (see Baseline_golden). *)
let () = List.iter print_endline (Rp_baseline_golden.Baseline_golden.lines ())
