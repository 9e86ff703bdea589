(* The benchmark harness's statistics and its drift comparison. *)

module J = Rp_obs.Json
module Rd = Rp_bench.Rounds
module A = Rp_bench.Artifact

let float = Alcotest.float 1e-9

let is_nan msg x = Alcotest.(check bool) msg true (Float.is_nan x)

let empty () =
  is_nan "median" (Rd.median [||]);
  let q1, m, q3 = Rd.quartiles [||] in
  is_nan "q1" q1;
  is_nan "q2" m;
  is_nan "q3" q3;
  is_nan "p99" (Rd.percentile [||] 0.99)

let one_sample () =
  Alcotest.check float "median" 4.0 (Rd.median [| 4.0 |]);
  let q1, m, q3 = Rd.quartiles [| 4.0 |] in
  Alcotest.check float "q1" 4.0 q1;
  Alcotest.check float "q2" 4.0 m;
  Alcotest.check float "q3" 4.0 q3;
  Alcotest.check float "p0" 4.0 (Rd.percentile [| 4.0 |] 0.0);
  Alcotest.check float "p99" 4.0 (Rd.percentile [| 4.0 |] 0.99);
  Alcotest.check float "iqr" 0.0 (Rd.spread [| 4.0 |]).Rd.iqr

let odd () =
  (* unsorted on purpose; sorted: 1 2 3 4 5 *)
  let a = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check float "median" 3.0 (Rd.median a);
  let q1, _, q3 = Rd.quartiles a in
  Alcotest.check float "q1" 2.0 q1;
  Alcotest.check float "q3" 4.0 q3;
  Alcotest.check float "iqr" 2.0 (Rd.spread a).Rd.iqr;
  Alcotest.check float "p50" 3.0 (Rd.percentile a 0.5);
  Alcotest.check float "p61" 4.0 (Rd.percentile a 0.61);
  Alcotest.check float "p99" 5.0 (Rd.percentile a 0.99);
  Alcotest.check float "p0" 1.0 (Rd.percentile a 0.0);
  Alcotest.(check (array (Alcotest.float 0.0)))
    "input left unsorted" [| 5.0; 1.0; 4.0; 2.0; 3.0 |] a

let even () =
  let a = [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.check float "median" 2.5 (Rd.median a);
  let q1, _, q3 = Rd.quartiles a in
  Alcotest.check float "q1" 1.75 q1;
  Alcotest.check float "q3" 3.25 q3;
  Alcotest.check float "p50" 2.0 (Rd.percentile a 0.5);
  Alcotest.check float "p75" 3.0 (Rd.percentile a 0.75);
  Alcotest.check float "p76" 4.0 (Rd.percentile a 0.76)

(* every subject warms up once, then leads one round in turn *)
let interleave_order () =
  let log = ref [] in
  let subject name =
    let n = ref 0 in
    fun () ->
      log := name :: !log;
      incr n;
      [ ("n", float_of_int !n) ]
  in
  let runs = Rd.interleave ~rounds:3 [ subject "a"; subject "b" ] in
  Alcotest.(check (list string))
    "order" [ "a"; "b"; "a"; "b"; "b"; "a"; "a"; "b" ] (List.rev !log);
  match runs with
  | [ a; b ] ->
      Alcotest.(check (array (Alcotest.float 0.0)))
        "a's rounds" [| 2.0; 3.0; 4.0 |] (Rd.samples a "n");
      Alcotest.check float "a/b paired" 1.0 (Rd.ratio a b "n").Rd.median
  | _ -> Alcotest.fail "one runs per subject"

(* an artifact with one workload, as "json" writes it *)
let workload ?(webs_promoted = 5) ?(main_colors = 9) () =
  J.Obj
    [
      ("name", J.Str "go");
      ("behaviour_ok", J.Bool true);
      ( "static",
        J.Obj
          [
            ("before", J.Obj [ ("loads", J.Int 14); ("stores", J.Int 8) ]);
            ("after", J.Obj [ ("loads", J.Int 15); ("stores", J.Int 8) ]);
          ] );
      ( "dynamic",
        J.Obj
          [
            ("before", J.Obj [ ("loads", J.Int 900); ("stores", J.Int 80) ]);
            ("after", J.Obj [ ("loads", J.Int 700); ("stores", J.Int 78) ]);
          ] );
      ( "promotion",
        J.Obj
          [ ("webs_seen", J.Int 61); ("webs_promoted", J.Int webs_promoted) ] );
      ( "pressure",
        J.Obj
          [
            ("colors_before", J.Int 20);
            ("colors_after", J.Int 22);
            ( "functions",
              J.Arr
                [
                  J.Obj
                    [
                      ("name", J.Str "main");
                      ("colors_after", J.Int main_colors);
                    ];
                ] );
          ] );
    ]

(* the comparison goes through the artifact's text, as "drift" reads it *)
let committed =
  let artifact =
    J.Obj [ ("schema_version", J.Int 6); ("workloads", J.Arr [ workload () ]) ]
  in
  match J.parse (J.to_string artifact) with
  | Ok doc -> doc
  | Error e -> failwith e

let drift_unchanged () =
  Alcotest.(check (list string))
    "no drift" []
    (A.drift ~committed ~fresh:[ workload () ])

let drift_changed () =
  Alcotest.(check (list string))
    "one count named"
    [ "go.promotion.webs_promoted: committed 5, fresh 6" ]
    (A.drift ~committed ~fresh:[ workload ~webs_promoted:6 () ])

let drift_nested () =
  Alcotest.(check (list string))
    "function named"
    [ "go.pressure.functions[main].colors_after: committed 9, fresh 10" ]
    (A.drift ~committed ~fresh:[ workload ~main_colors:10 () ])

let drift_missing_workload () =
  Alcotest.(check (list string))
    "workload named"
    [ "go: in the artifact, not in the fresh run" ]
    (A.drift ~committed ~fresh:[])

let () =
  Alcotest.run "bench"
    [
      ( "rounds",
        [
          Alcotest.test_case "empty" `Quick empty;
          Alcotest.test_case "one sample" `Quick one_sample;
          Alcotest.test_case "odd count" `Quick odd;
          Alcotest.test_case "even count" `Quick even;
          Alcotest.test_case "interleaved order" `Quick interleave_order;
        ] );
      ( "drift",
        [
          Alcotest.test_case "unchanged passes" `Quick drift_unchanged;
          Alcotest.test_case "changed count named" `Quick drift_changed;
          Alcotest.test_case "nested count named" `Quick drift_nested;
          Alcotest.test_case "missing workload" `Quick drift_missing_workload;
        ] );
    ]
