(* The occurrence index that promotion keeps current
   ({!Rp_ssa.Occ_index}) against a fresh build of the same function:
   the same instructions per variable, in the same order, after every
   promoted web and every run of the incremental updater.  Every
   function of the named programs, gen60, gen120 and random programs is
   promoted under the default configuration and [--regs 6].

   [RPROMOTE_JOBS] (CI sets 1 and 4) sets how many functions are
   promoted in parallel, so the check also covers the parallel
   compile. *)

open Rp_ir
module P = Rp_core.Pipeline

let jobs =
  match Sys.getenv_opt "RPROMOTE_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

let d = P.default_options

let configs =
  [
    ("default", d);
    ("--regs 6", Helpers.with_regs (Some 6) d);
  ]

(* Promote every function of [src] under [options], checking the index
   each time promotion hands it over; the number of checks.  [profile]
   runs the program for a measured profile, otherwise the static
   estimate is used. *)
let promote_checked ~profile ~options name src =
  let prog, trees = P.prepare ~options src in
  if profile then ignore (P.attach_profile ~options prog trees);
  let cfg = P.effective_promote options in
  let checks = Atomic.make 0 in
  Rp_par.Pool.with_pool ~jobs (fun pool ->
      Rp_par.Pool.iter pool
        (fun (f : Func.t) ->
          match List.assoc_opt f.Func.fname trees with
          | None -> ()
          | Some tree ->
              if not profile then Rp_analysis.Freq.estimate f tree;
              let ctx = name ^ "/" ^ f.Func.fname in
              ignore
                (Rp_core.Promote.promote_function ~cfg
                   ~on_edit:(fun index ->
                     Atomic.incr checks;
                     Helpers.check_index ctx index f)
                   f prog.Func.vartab tree))
        prog.Func.funcs);
  Atomic.get checks

let test_workloads () =
  let sources =
    List.map
      (fun (w : Rp_workloads.Registry.workload) ->
        (w.Rp_workloads.Registry.name, w.Rp_workloads.Registry.source))
      Rp_workloads.Registry.all
    @ List.map
        (fun n ->
          ( Printf.sprintf "gen%d" n,
            (Rp_workloads.Registry.generated n).Rp_workloads.Registry.source ))
        [ 60; 120 ]
  in
  List.iter
    (fun (cname, options) ->
      let checks =
        List.fold_left
          (fun n (name, src) ->
            n + promote_checked ~profile:true ~options (cname ^ " " ^ name) src)
          0 sources
      in
      if checks < 1000 then
        Alcotest.failf "%s: only %d index checks" cname checks)
    configs

let prop_random =
  QCheck.Test.make ~name:"maintained index = fresh build (random programs)"
    ~count:100 Suite_qcheck.arb_program (fun src ->
      List.iter
        (fun (cname, options) ->
          ignore (promote_checked ~profile:false ~options cname src))
        configs;
      true)

let suite =
  [
    Alcotest.test_case "maintained index = fresh build (workloads)" `Quick
      test_workloads;
    Suite_qcheck.qtest prop_random;
  ]
