(* Output fingerprints: the promoted IR, the SSA form before promotion
   and the deterministic JSON reports of the named workloads and the
   generated programs must stay byte-identical to the digests in
   golden/fingerprints.txt.

   The digests were taken with the CLI (golden/fingerprints.sh); this
   suite recomputes them in process through the same entry points the
   CLI uses: [Pipeline.run_fresh_json] for
   [rpromote promote --deterministic --json -], the promoted program of
   the same run for [rpromote dump], and [Pipeline.prepare] for
   [rpromote dump --stage ssa].  A pure refactor of the promoter must
   leave every line unchanged; a moved phi fails at the SSA stage. *)

module P = Rp_core.Pipeline

let md5 s = Digest.to_hex (Digest.string s)

let source target =
  match Rp_workloads.Registry.find target with
  | Some w -> w.Rp_workloads.Registry.source
  | None -> Alcotest.failf "unknown workload %s" target

(* (dump digest, report digest) of one CLI flag set *)
let fingerprint ~options target =
  let options = { options with P.trace = true } in
  let report, json =
    P.run_fresh_json ~label:target ~deterministic:true ~options (source target)
  in
  (md5 (Rp_ir.Pp.prog_to_string report.P.prog), md5 json)

let lines text : (string * string * string) list =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ kind; target; digest ] -> Some (kind, target, digest)
         | _ -> None)

let golden = lines Fingerprints_golden.text

let d = P.default_options

let flags_of_kind = function
  | "dump" | "report" -> d
  | "dump-scalrep" | "report-scalrep" -> { d with P.scalrep = true }
  | "spill6" -> Helpers.with_regs ~spill_order:true (Some 6) d
  | k -> Alcotest.failf "unknown fingerprint kind %s" k

(* [rpromote dump --stage ssa] *)
let ssa_fingerprint target =
  let prog, _ = P.prepare (source target) in
  md5 (Rp_ir.Pp.prog_to_string prog)

let test_golden () =
  Alcotest.(check int) "golden lines" 54 (List.length golden);
  let memo = Hashtbl.create 32 in
  List.iter
    (fun (kind, target, want) ->
      let flags =
        match kind with
        | "dump" | "report" -> "plain"
        | "dump-scalrep" | "report-scalrep" -> "scalrep"
        | _ -> kind
      in
      let run () =
        match Hashtbl.find_opt memo (flags, target) with
        | Some fp -> fp
        | None ->
            let fp = fingerprint ~options:(flags_of_kind kind) target in
            Hashtbl.replace memo (flags, target) fp;
            fp
      in
      let got =
        if kind = "ssa" then ssa_fingerprint target
        else if String.starts_with ~prefix:"dump" kind then fst (run ())
        else snd (run ())
      in
      Alcotest.(check string) (kind ^ " " ^ target) want got)
    golden

(* The SSA form up to a renaming (golden/alpha.txt): a change that only
   renumbers registers and versions, or reorders a block's phis, keeps
   every line. *)
let test_alpha () =
  let golden = lines Alpha_golden.text in
  Alcotest.(check (list string))
    "alpha targets" Rp_alpha.Alpha.targets
    (List.map (fun (_, t, _) -> t) golden);
  List.iter
    (fun (kind, target, want) ->
      Alcotest.(check string)
        (kind ^ " " ^ target) want
        (Rp_alpha.Alpha.digest target))
    golden

let suite =
  [
    Alcotest.test_case "golden digests" `Slow test_golden;
    Alcotest.test_case "ssa alpha digests" `Quick test_alpha;
  ]
