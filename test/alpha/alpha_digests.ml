(* Print the golden alpha digests, one "ssa-alpha TARGET MD5" line per
   workload: the SSA form of [rpromote dump TARGET --stage ssa] up to a
   renaming (see Alpha). *)
let () =
  List.iter
    (fun t -> Printf.printf "ssa-alpha %s %s\n" t (Rp_alpha.Alpha.digest t))
    Rp_alpha.Alpha.targets
