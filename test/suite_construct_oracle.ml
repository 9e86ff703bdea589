(* SSA construction on global names against the all-locations oracle
   ({!Construct_oracle}): the same phis, names and versions, byte for
   byte under [Pp], on the named workloads, blur/dot/lpc with scalar
   replacement, gen60 to gen480 and random programs, with both IDF
   engines.  Also the precondition: a function that already has phis
   is refused before anything is changed. *)

open Rp_ir
open Rp_analysis
module P = Rp_core.Pipeline
module Construct = Rp_ssa.Construct

(* the program as construction meets it: lowered and normalised *)
let pre_ssa ~options src =
  let prog, _ = P.frontend ~options src in
  List.iter (fun f -> ignore (Intervals.normalise f)) prog.Func.funcs;
  prog

let oracle_engine = function
  | Construct.Cytron -> Construct_oracle.Cytron
  | Construct.Sreedhar_gao -> Construct_oracle.Sreedhar_gao

let versions (f : Func.t) =
  List.sort compare (Hashtbl.fold (fun v n acc -> (v, n) :: acc) f.Func.mver [])

(* Construct a clone of every function both ways; true when all agree.
   [fail] reports the first difference. *)
let agree ~fail ~engine label (prog : Func.prog) =
  let tab = prog.Func.vartab in
  List.for_all
    (fun (f : Func.t) ->
      let want = Func.clone f and got = Func.clone f in
      Construct_oracle.run ~engine:(oracle_engine engine) want;
      Construct.run ~engine got;
      let show (g : Func.t) =
        Printf.sprintf "%s\nnext_reg %d next_iid %d versions %s"
          (Pp.func_to_string tab g) g.Func.next_reg g.Func.next_iid
          (String.concat ","
             (List.map (fun (v, n) -> Printf.sprintf "%d:%d" v n) (versions g)))
      in
      let want = show want and got = show got in
      want = got || fail (Printf.sprintf "%s/%s" label f.Func.fname) want got)
    prog.Func.funcs

let alcotest_fail what want got =
  Alcotest.(check string) what want got;
  false

let test_programs engine () =
  List.iter
    (fun (label, options, src) ->
      ignore
        (agree ~fail:alcotest_fail ~engine label (pre_ssa ~options src)))
    Helpers.equivalence_programs

let prop_random_programs =
  QCheck.Test.make ~name:"construct = oracle (random programs)" ~count:200
    (QCheck.make Rp_progen.Progen.gen_program ~print:(fun s -> s))
    (fun src ->
      let prog = pre_ssa ~options:P.default_options src in
      agree ~engine:Construct.Cytron "random" prog ~fail:(fun what want got ->
          QCheck.Test.fail_reportf "%s:\noracle:\n%s\nconstruct:\n%s" what want
            got))

let test_twice () =
  let src =
    {|
int x = 0;
int main() {
  int i;
  for (i = 0; i < 10; i++) { x = x + i; }
  print(x);
  return 0;
}
|}
  in
  let prog = pre_ssa ~options:P.default_options src in
  let f = Option.get (Func.find_func prog "main") in
  Construct.run f;
  let before = Pp.func_to_string prog.Func.vartab f in
  Alcotest.check_raises "second run"
    (Invalid_argument "Construct.run: main already contains phi instructions")
    (fun () -> Construct.run f);
  Alcotest.(check string) "function untouched" before
    (Pp.func_to_string prog.Func.vartab f)

let suite =
  [
    Alcotest.test_case "workloads, cytron" `Quick
      (test_programs Construct.Cytron);
    Alcotest.test_case "workloads, sreedhar-gao" `Quick
      (test_programs Construct.Sreedhar_gao);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x5eed |])
      prop_random_programs;
    Alcotest.test_case "phis already present" `Quick test_twice;
  ]
