(* One clean-up round is a fixed point: after [Cleanup.run], copy
   propagation rewrites nothing and DCE removes nothing.  Checked after
   SSA construction, after promotion and after memory-SSA dead-store
   elimination, on the equivalence program set and random programs. *)

open Rp_ir
module P = Rp_core.Pipeline

(* the counts (copyprop rewrites, DCE removals) of every function still
   reporting work, with the stage and function name *)
let leftovers stage (prog : Func.prog) =
  List.filter_map
    (fun (f : Func.t) ->
      let c = Rp_opt.Copyprop.run f in
      let d = Rp_opt.Dce.run f in
      if c = 0 && d = 0 then None
      else
        Some
          (Printf.sprintf "%s %s: copyprop %d, dce %d" stage f.Func.fname c d))
    prog.Func.funcs

(* construction (with its clean-up), static profile, promotion and
   clean-up, DSE and clean-up *)
let stages ~(options : P.options) src =
  let prog, trees = P.prepare ~options src in
  let after_construct = leftovers "construction" prog in
  let tab = prog.Func.vartab in
  List.iter
    (fun (f : Func.t) ->
      match List.assoc_opt f.Func.fname trees with
      | Some tree ->
          Rp_analysis.Freq.estimate f tree;
          ignore
            (Rp_core.Promote.promote_function ~cfg:options.P.promote f tab
               tree);
          Rp_opt.Cleanup.run f
      | None -> ())
    prog.Func.funcs;
  let after_promote = leftovers "promotion" prog in
  List.iter
    (fun f ->
      ignore (Rp_opt.Dse.run f);
      Rp_opt.Cleanup.run f)
    prog.Func.funcs;
  after_construct @ after_promote @ leftovers "dse" prog

let test_programs () =
  List.iter
    (fun (label, options, src) ->
      Alcotest.(check (list string)) label [] (stages ~options src))
    Helpers.equivalence_programs

let prop_random_programs =
  QCheck.Test.make ~name:"one clean-up round is a fixed point (random programs)"
    ~count:200
    (QCheck.make Rp_progen.Progen.gen_program ~print:(fun s -> s))
    (fun src ->
      match stages ~options:P.default_options src with
      | [] -> true
      | l -> QCheck.Test.fail_reportf "%s" (String.concat "\n" l))

let suite =
  [
    Alcotest.test_case "workloads" `Quick test_programs;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x5eed |])
      prop_random_programs;
  ]
