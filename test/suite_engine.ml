(* Differential tests: the flat-decoded engine ([Decode] + [Engine])
   against the tree-walking oracle ([Interp]).  The contract under test
   is total observable equality — exit value, print trace, dynamic
   counters, block/edge/call frequencies, and the same trap (message
   and kind) at the same point — on random programs, on the seed
   workloads, and on the synthetic gen sweep, both before and after
   promotion.  The deterministic-report checks additionally pin the
   JSON bytes: a flat-engine pipeline run must be indistinguishable
   from a tree-engine one.

   [RPROMOTE_JOBS] (CI sets 1 and 4) feeds the pipeline's [jobs] so
   the byte-identity check also covers the parallel compile. *)

module I = Rp_interp.Interp
module D = Rp_interp.Decode
module E = Rp_interp.Engine
module RC = Rp_interp.Rcompile
module RE = Rp_interp.Rengine
module P = Rp_core.Pipeline
module R = Rp_workloads.Registry

let qtest = Suite_qcheck.qtest

let jobs_from_env =
  match Sys.getenv_opt "RPROMOTE_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

(* ------------------------------------------------------------------ *)
(* Run outcomes: a result flattened to comparable (sorted) lists, or
   the trap that ended the run. *)

type outcome = {
  o_exit : int;
  o_output : int list;
  o_counters : int * int * int * int * int;
  o_blocks : ((string * Rp_ir.Ids.bid) * int) list;
  o_edges : ((string * Rp_ir.Ids.bid * Rp_ir.Ids.bid) * int) list;
  o_calls : (string * int) list;
}

type run = Finished of outcome | Trap of string | Fuel of int

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let outcome (r : I.result) : outcome =
  let c = r.I.counters in
  {
    o_exit = r.I.exit_value;
    o_output = r.I.output;
    o_counters =
      (c.I.loads, c.I.stores, c.I.aliased_loads, c.I.aliased_stores, c.I.instrs);
    o_blocks = sorted_bindings r.I.block_counts;
    o_edges = sorted_bindings r.I.edge_counts;
    o_calls = sorted_bindings r.I.call_counts;
  }

let run_of f =
  match f () with
  | r -> Finished (outcome r)
  | exception I.Runtime_error m -> Trap m
  | exception I.Out_of_fuel budget -> Fuel budget

let run_tree ~fuel prog = run_of (fun () -> I.run ~fuel prog)
let run_flat ~fuel prog = run_of (fun () -> E.run ~fuel (D.decode prog))
let run_reg ~fuel prog = run_of (fun () -> RE.run ~fuel (RC.compile prog))

let run_fused ~fuel prog =
  run_of (fun () -> RE.run ~fuel (RC.compile ~fuse:true prog))

let describe = function
  | Finished o ->
      Printf.sprintf "exit %d, %d prints, instrs %d"
        o.o_exit (List.length o.o_output)
        (let _, _, _, _, i = o.o_counters in
         i)
  | Trap m -> "trap: " ^ m
  | Fuel b -> Printf.sprintf "out of fuel (budget %d)" b

(* where do two outcomes first disagree? *)
let diff_field a b =
  match (a, b) with
  | Finished x, Finished y ->
      if x.o_exit <> y.o_exit then "exit value"
      else if x.o_output <> y.o_output then "print trace"
      else if x.o_counters <> y.o_counters then "dynamic counters"
      else if x.o_blocks <> y.o_blocks then "block counts"
      else if x.o_edges <> y.o_edges then "edge counts"
      else if x.o_calls <> y.o_calls then "call counts"
      else "equal"
  | _ -> "run kind"

let check_same ctx tree flat =
  if tree <> flat then
    Alcotest.failf "%s: engine diverges from oracle on %s\n  tree: %s\n  flat: %s"
      ctx (diff_field tree flat) (describe tree) (describe flat)

(* the full two-deep oracle stack: flat vs tree, then reg vs tree,
   then the fused reg variant vs tree *)
let check_same4 ctx tree flat reg fused =
  check_same (ctx ^ " [flat]") tree flat;
  if tree <> reg then
    Alcotest.failf "%s: reg engine diverges from oracle on %s\n  tree: %s\n  reg: %s"
      ctx (diff_field tree reg) (describe tree) (describe reg);
  if tree <> fused then
    Alcotest.failf
      "%s: fused engine diverges from oracle on %s\n  tree: %s\n  fused: %s"
      ctx (diff_field tree fused) (describe tree) (describe fused)

(* ------------------------------------------------------------------ *)
(* Random programs: engine vs oracle on the prepared (SSA) program and
   on the promoted one. *)

let prop_engine_matches_oracle =
  QCheck.Test.make ~name:"flat engine matches oracle (random programs)"
    ~count:250 Suite_qcheck.arb_program (fun src ->
      let fuel = 2_000_000 in
      let prog, _ = P.prepare src in
      let tree = run_tree ~fuel prog
      and flat = run_flat ~fuel prog
      and reg = run_reg ~fuel prog
      and fused = run_fused ~fuel prog in
      if tree <> flat then
        QCheck.Test.fail_reportf "pre-promotion %s:@.tree %s@.flat %s"
          (diff_field tree flat) (describe tree) (describe flat)
      else if tree <> reg then
        QCheck.Test.fail_reportf "pre-promotion %s:@.tree %s@.reg %s"
          (diff_field tree reg) (describe tree) (describe reg)
      else if tree <> fused then
        QCheck.Test.fail_reportf "pre-promotion %s:@.tree %s@.fused %s"
          (diff_field tree fused) (describe tree) (describe fused)
      else
        (* the same comparison on the promoted program; the pipeline
           (tree engine, so this property never depends on the code
           under test) only finishes when the baseline run did *)
        match
          P.run
            ~options:{ Suite_qcheck.qcheck_options with P.interp = P.Tree }
            src
        with
        | report ->
            let p = report.P.prog in
            let tree = run_tree ~fuel p
            and flat = run_flat ~fuel p
            and reg = run_reg ~fuel p
            and fused = run_fused ~fuel p in
            if tree <> flat then
              QCheck.Test.fail_reportf "post-promotion %s:@.tree %s@.flat %s"
                (diff_field tree flat) (describe tree) (describe flat)
            else if tree <> reg then
              QCheck.Test.fail_reportf "post-promotion %s:@.tree %s@.reg %s"
                (diff_field tree reg) (describe tree) (describe reg)
            else if tree <> fused then
              QCheck.Test.fail_reportf "post-promotion %s:@.tree %s@.fused %s"
                (diff_field tree fused) (describe tree) (describe fused)
            else true
        | exception (I.Runtime_error _ | I.Out_of_fuel _) -> true)

(* The whole pipeline, flat vs tree: profiles feed promotion, so equal
   reports here also prove the engine's profile drives the same
   promotion decisions. *)
let prop_pipeline_engines_agree =
  QCheck.Test.make ~name:"pipeline agrees under flat and tree engines"
    ~count:100 Suite_qcheck.arb_program (fun src ->
      let go interp =
        match
          P.run ~options:{ Suite_qcheck.qcheck_options with P.interp } src
        with
        | r -> Some r
        | exception (I.Runtime_error _ | I.Out_of_fuel _) -> None
      in
      let agree (a : P.report) (b : P.report) =
        a.P.behaviour_ok && b.P.behaviour_ok
        && outcome a.P.baseline = outcome b.P.baseline
        && outcome a.P.final = outcome b.P.final
        && a.P.static_after = b.P.static_after
        && a.P.per_function = b.P.per_function
      in
      match (go P.Tree, go P.Flat, go P.Reg, go P.Fused) with
      | None, None, None, None -> true
      | Some a, Some b, Some c, Some d -> agree a b && agree a c && agree a d
      | Some _, None, _, _ ->
          QCheck.Test.fail_report "flat trapped, tree finished"
      | Some _, _, None, _ ->
          QCheck.Test.fail_report "reg trapped, tree finished"
      | Some _, _, _, None ->
          QCheck.Test.fail_report "fused trapped, tree finished"
      | None, _, _, _ ->
          QCheck.Test.fail_report "tree trapped, another finished")

(* ------------------------------------------------------------------ *)
(* Seed workloads and the gen sweep *)

let workload_fuel = 80_000_000

let differential_on_workload (w : R.workload) () =
  let prog, _ = P.prepare w.R.source in
  check_same4 (w.R.name ^ " pre-promotion")
    (run_tree ~fuel:workload_fuel prog)
    (run_flat ~fuel:workload_fuel prog)
    (run_reg ~fuel:workload_fuel prog)
    (run_fused ~fuel:workload_fuel prog);
  let report =
    P.run
      ~options:{ P.default_options with fuel = workload_fuel; interp = P.Tree }
      w.R.source
  in
  check_same4 (w.R.name ^ " post-promotion")
    (run_tree ~fuel:workload_fuel report.P.prog)
    (run_flat ~fuel:workload_fuel report.P.prog)
    (run_reg ~fuel:workload_fuel report.P.prog)
    (run_fused ~fuel:workload_fuel report.P.prog)

(* refresh must be equivalent to a from-scratch decode: decode before
   promotion, refresh after the IR was rewritten, compare against a
   fresh image of the final program *)
let test_refresh_matches_fresh_decode () =
  (* drive one program object through profile → promote → refresh by
     hand, so the decode image sees the same in-place IR rewrite the
     pipeline performs *)
  let w = Option.get (R.find "li") in
  let options = { P.default_options with fuel = workload_fuel } in
  let prog, trees = P.prepare ~options w.R.source in
  let dec = D.decode prog in
  let before_flat = run_of (fun () -> E.run ~fuel:workload_fuel dec) in
  let before_tree = run_tree ~fuel:workload_fuel prog in
  check_same "li pre-promotion (shared image)" before_tree before_flat;
  ignore (P.attach_profile ~options ~decoded:(P.Iflat dec) prog trees);
  List.iter
    (fun (f : Rp_ir.Func.t) ->
      match List.assoc_opt f.Rp_ir.Func.fname trees with
      | Some tree ->
          ignore
            (Rp_core.Promote.promote_function
               ~cfg:Rp_core.Promote.default_config f prog.Rp_ir.Func.vartab
               tree)
      | None -> ())
    prog.Rp_ir.Func.funcs;
  Rp_opt.Cleanup.run_prog prog;
  D.refresh dec;
  let refreshed = run_of (fun () -> E.run ~fuel:workload_fuel dec) in
  let fresh = run_flat ~fuel:workload_fuel prog in
  let tree = run_tree ~fuel:workload_fuel prog in
  check_same "li post-promotion refresh vs fresh decode" fresh refreshed;
  check_same "li post-promotion refresh vs oracle" tree refreshed

(* the same contract for the register backend: [Rcompile.refresh] after
   an in-place IR rewrite must match a from-scratch compile *)
let test_reg_refresh_matches_fresh_compile () =
  let w = Option.get (R.find "li") in
  let options = { P.default_options with fuel = workload_fuel } in
  let prog, trees = P.prepare ~options w.R.source in
  let cp = RC.compile prog in
  let before_reg = run_of (fun () -> RE.run ~fuel:workload_fuel cp) in
  let before_tree = run_tree ~fuel:workload_fuel prog in
  check_same "li pre-promotion (shared reg image)" before_tree before_reg;
  ignore (P.attach_profile ~options ~decoded:(P.Ireg cp) prog trees);
  List.iter
    (fun (f : Rp_ir.Func.t) ->
      match List.assoc_opt f.Rp_ir.Func.fname trees with
      | Some tree ->
          ignore
            (Rp_core.Promote.promote_function
               ~cfg:Rp_core.Promote.default_config f prog.Rp_ir.Func.vartab
               tree)
      | None -> ())
    prog.Rp_ir.Func.funcs;
  Rp_opt.Cleanup.run_prog prog;
  RC.refresh cp;
  let refreshed = run_of (fun () -> RE.run ~fuel:workload_fuel cp) in
  let fresh = run_reg ~fuel:workload_fuel prog in
  let tree = run_tree ~fuel:workload_fuel prog in
  check_same "li post-promotion reg refresh vs fresh compile" fresh refreshed;
  check_same "li post-promotion reg refresh vs oracle" tree refreshed

(* and once more with the superinstruction layer on: [Rcompile.refresh]
   re-runs the peephole emitter, so a refreshed fused image must match
   both a from-scratch fused compile and the oracle *)
let test_fused_refresh_matches_fresh_compile () =
  let w = Option.get (R.find "li") in
  let options = { P.default_options with fuel = workload_fuel } in
  let prog, trees = P.prepare ~options w.R.source in
  let cp = RC.compile ~fuse:true prog in
  let before_fused = run_of (fun () -> RE.run ~fuel:workload_fuel cp) in
  let before_tree = run_tree ~fuel:workload_fuel prog in
  check_same "li pre-promotion (shared fused image)" before_tree before_fused;
  ignore (P.attach_profile ~options ~decoded:(P.Ireg cp) prog trees);
  List.iter
    (fun (f : Rp_ir.Func.t) ->
      match List.assoc_opt f.Rp_ir.Func.fname trees with
      | Some tree ->
          ignore
            (Rp_core.Promote.promote_function
               ~cfg:Rp_core.Promote.default_config f prog.Rp_ir.Func.vartab
               tree)
      | None -> ())
    prog.Rp_ir.Func.funcs;
  Rp_opt.Cleanup.run_prog prog;
  RC.refresh cp;
  let refreshed = run_of (fun () -> RE.run ~fuel:workload_fuel cp) in
  let fresh = run_fused ~fuel:workload_fuel prog in
  let tree = run_tree ~fuel:workload_fuel prog in
  check_same "li post-promotion fused refresh vs fresh compile" fresh refreshed;
  check_same "li post-promotion fused refresh vs oracle" tree refreshed

(* deterministic JSON reports must be byte-identical across engines *)
let report_bytes interp (w : R.workload) =
  let options =
    {
      P.default_options with
      fuel = workload_fuel;
      trace = true;
      jobs = jobs_from_env;
      interp;
    }
  in
  let _, s =
    P.run_fresh_json ~label:w.R.name ~deterministic:true ~options w.R.source
  in
  s

let byte_identity_on_workload (w : R.workload) () =
  let tree = report_bytes P.Tree w
  and flat = report_bytes P.Flat w
  and reg = report_bytes P.Reg w
  and fused = report_bytes P.Fused w in
  Alcotest.(check string)
    (Printf.sprintf "%s: deterministic report bytes, tree vs flat (jobs=%d)"
       w.R.name jobs_from_env)
    tree flat;
  Alcotest.(check string)
    (Printf.sprintf "%s: deterministic report bytes, tree vs reg (jobs=%d)"
       w.R.name jobs_from_env)
    tree reg;
  Alcotest.(check string)
    (Printf.sprintf "%s: deterministic report bytes, tree vs fused (jobs=%d)"
       w.R.name jobs_from_env)
    tree fused

(* ------------------------------------------------------------------ *)
(* Fuel exhaustion: both engines raise the distinct exception with the
   budget attached, at the same instruction count. *)

let test_fuel_exhaustion_parity () =
  let src = "int main() { while (1) { } return 0; }" in
  let prog, _ = P.prepare src in
  let budget = 10_000 in
  (match run_tree ~fuel:budget prog with
  | Fuel b -> Alcotest.(check int) "tree budget" budget b
  | o -> Alcotest.failf "tree: expected fuel exhaustion, got %s" (describe o));
  (match run_flat ~fuel:budget prog with
  | Fuel b -> Alcotest.(check int) "flat budget" budget b
  | o -> Alcotest.failf "flat: expected fuel exhaustion, got %s" (describe o));
  (match run_reg ~fuel:budget prog with
  | Fuel b -> Alcotest.(check int) "reg budget" budget b
  | o -> Alcotest.failf "reg: expected fuel exhaustion, got %s" (describe o));
  (match run_fused ~fuel:budget prog with
  | Fuel b -> Alcotest.(check int) "fused budget" budget b
  | o -> Alcotest.failf "fused: expected fuel exhaustion, got %s" (describe o));
  (* and through the full pipeline under the default (flat) engine *)
  (match P.run ~options:{ P.default_options with fuel = budget } src with
  | _ -> Alcotest.fail "pipeline: expected Out_of_fuel"
  | exception I.Out_of_fuel b -> Alcotest.(check int) "pipeline budget" budget b);
  (* and under the register backend *)
  (match
     P.run
       ~options:{ P.default_options with fuel = budget; interp = P.Reg }
       src
   with
  | _ -> Alcotest.fail "reg pipeline: expected Out_of_fuel"
  | exception I.Out_of_fuel b ->
      Alcotest.(check int) "reg pipeline budget" budget b);
  (* and with superinstruction fusion on *)
  match
    P.run
      ~options:{ P.default_options with fuel = budget; interp = P.Fused }
      src
  with
  | _ -> Alcotest.fail "fused pipeline: expected Out_of_fuel"
  | exception I.Out_of_fuel b ->
      Alcotest.(check int) "fused pipeline budget" budget b

(* Adversarial budgets: sweep every fuel value over a window so
   exhaustion lands on every possible instruction of a fusible loop —
   including mid-block and between the two halves of a superinstruction.
   The block-batched fuel accounting must reproduce the oracle's exact
   stopping point (same Finished outcome, the same trap, or Fuel at the
   same budget) for each one. *)
let test_adversarial_budget_sweep () =
  (* dependent binop chain (bin2 fodder) feeding a compare-and-branch
     latch (cbr fodder), plus a print so mid-iteration stops would be
     observable if an engine overran its budget *)
  let chain =
    "int main() {\n\
    \  int i; int a; int b;\n\
    \  i = 0; a = 1; b = 2;\n\
    \  while (i < 9) {\n\
    \    a = a + b;\n\
    \    b = a * 2;\n\
    \    a = b - i;\n\
    \    print(a);\n\
    \    i = i + 1;\n\
    \  }\n\
    \  return a;\n\
    }"
  in
  (* shapes the fused compiler leaves to the generic emitter: a store
     through a just-taken address, a pointer-arithmetic store, an
     immediate-on-the-left compare feeding a branch, and a literal
     division by zero (the zero reaches it by constant propagation)
     that ends the run with a trap; beside them a constant-index array
     store, which still fuses *)
  let stores =
    "int a[8];\n\
     int main() {\n\
    \  int i; int s; int q; int z; int x; int *r; int *w;\n\
    \  w = &a[1];\n\
    \  s = 0; z = 0;\n\
    \  for (i = 0; i < 6; i++) {\n\
    \    r = &x;\n\
    \    *r = i;\n\
    \    a[2] = s;\n\
    \    *(w + i) = s;\n\
    \    if (3 < i) { s = s + x; }\n\
    \    print(s + a[i]);\n\
    \  }\n\
    \  q = 1 / z;\n\
    \  return s + q;\n\
     }"
  in
  List.iter
    (fun (name, src, last) ->
      let prog, _ = P.prepare src in
      for budget = 1 to 400 do
        let tree = run_tree ~fuel:budget prog
        and reg = run_reg ~fuel:budget prog
        and fused = run_fused ~fuel:budget prog in
        if tree <> reg then
          Alcotest.failf
            "%s, budget %d: reg diverges on %s\n  tree: %s\n  reg: %s" name
            budget (diff_field tree reg) (describe tree) (describe reg);
        if tree <> fused then
          Alcotest.failf
            "%s, budget %d: fused diverges on %s\n  tree: %s\n  fused: %s"
            name budget (diff_field tree fused) (describe tree)
            (describe fused)
      done;
      (* the window must reach the end of the run *)
      match (run_tree ~fuel:400 prog, last) with
      | Finished _, `Finished | Trap "division by zero", `Trap -> ()
      | o, _ -> Alcotest.failf "%s: budget 400 ends in %s" name (describe o))
    [ ("chain", chain, `Finished); ("stores", stores, `Trap) ]

(* ------------------------------------------------------------------ *)
(* The constant folder must keep [op_bin_ii] out of every fused image:
   a binop whose operands are both immediates is folded at compile
   time, so the opcode never reaches the dispatch loop.  The one
   exception, a literal division by zero, must keep trapping and stays
   [op_bin_ii]; no workload has one.  Walk the packed code of every
   seed workload and the gen sweep and assert it is absent — and that
   the fusion actually fired somewhere, so the scan is not vacuous. *)

let test_no_bin_ii_in_fused_images () =
  let scan src =
    let prog, _ = P.prepare src in
    let cp = RC.compile ~fuse:true prog in
    let saw_fused = ref false in
    Array.iter
      (fun (rf : RC.rfunc) ->
        let pc = ref 0 in
        while !pc < rf.RC.rcode_len do
          let op = rf.RC.rcode.(!pc) in
          if op = RC.op_bin_ii then
            Alcotest.failf "%s: op_bin_ii survived fusion at pc %d"
              rf.RC.rname !pc;
          if op = RC.op_cbr_rr || op = RC.op_cbr_ri || op = RC.op_bin2
             || op = RC.op_load2 || op = RC.op_bin_store
             || op = RC.op_mm_bin || op = RC.op_mm_bin_store
             || op = RC.op_mm_bin2 || op = RC.op_mm_bin2_store
             || op = RC.op_abin_pstore || op = RC.op_copy_n
             || op = RC.op_bst_bin2
          then saw_fused := true;
          pc := !pc + RC.op_len rf.RC.rcode !pc
        done)
      cp.RC.rfuncs;
    !saw_fused
  in
  let any_fused = ref false in
  List.iter
    (fun (w : R.workload) -> if scan w.R.source then any_fused := true)
    R.all;
  let g = R.generated 60 in
  if scan g.R.source then any_fused := true;
  Alcotest.(check bool)
    "at least one workload contains a fused superinstruction" true !any_fused

let suite =
  let seed_cases name mk =
    List.map
      (fun (w : R.workload) ->
        Alcotest.test_case (name ^ " " ^ w.R.name) `Quick (mk w))
      R.all
  in
  let gen_cases name mk =
    List.map
      (fun n ->
        let w = R.generated n in
        Alcotest.test_case (name ^ " " ^ w.R.name) `Quick (mk w))
      [ 60; 240 ]
  in
  seed_cases "differential" differential_on_workload
  @ gen_cases "differential" differential_on_workload
  @ seed_cases "report bytes" byte_identity_on_workload
  @ gen_cases "report bytes" byte_identity_on_workload
  @ [
      Alcotest.test_case "refresh vs fresh decode" `Quick
        test_refresh_matches_fresh_decode;
      Alcotest.test_case "reg refresh vs fresh compile" `Quick
        test_reg_refresh_matches_fresh_compile;
      Alcotest.test_case "fused refresh vs fresh compile" `Quick
        test_fused_refresh_matches_fresh_compile;
      Alcotest.test_case "fuel exhaustion parity" `Quick
        test_fuel_exhaustion_parity;
      Alcotest.test_case "adversarial budget sweep" `Quick
        test_adversarial_budget_sweep;
      Alcotest.test_case "no op_bin_ii in fused images" `Quick
        test_no_bin_ii_in_fused_images;
      qtest prop_engine_matches_oracle;
      qtest prop_pipeline_engines_agree;
    ]
