(* Output fingerprints: the promoted IR and the deterministic JSON
   reports of the named workloads and the generated programs must stay
   byte-identical to the digests in golden/fingerprints.txt.

   The digests were taken with the CLI (golden/fingerprints.sh); this
   suite recomputes them in process through the same entry points the
   CLI uses: [Pipeline.run_fresh_json] for
   [rpromote promote --deterministic --json -] and the promoted program
   of the same run for [rpromote dump].  A pure refactor of the
   promoter must leave every line unchanged. *)

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

let golden : (string * string * string) list =
  String.split_on_char '\n' Fingerprints_golden.text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ kind; target; digest ] -> Some (kind, target, digest)
         | _ -> None)

let d = P.default_options

let flags_of_kind = function
  | "dump" | "report" -> d
  | "dump-scalrep" | "report-scalrep" -> { d with P.scalrep = true }
  | "spill6" -> { d with P.regs = Some 6; spill_order = true }
  | k -> Alcotest.failf "unknown fingerprint kind %s" k

let test_golden () =
  Alcotest.(check int) "golden lines" 39 (List.length golden);
  let memo = Hashtbl.create 32 in
  List.iter
    (fun (kind, target, want) ->
      let flags =
        match kind with
        | "dump" | "report" -> "plain"
        | "dump-scalrep" | "report-scalrep" -> "scalrep"
        | _ -> kind
      in
      let dump, report =
        match Hashtbl.find_opt memo (flags, target) with
        | Some fp -> fp
        | None ->
            let fp = fingerprint ~options:(flags_of_kind kind) target in
            Hashtbl.replace memo (flags, target) fp;
            fp
      in
      let got =
        if String.starts_with ~prefix:"dump" kind then dump else report
      in
      Alcotest.(check string) (kind ^ " " ^ target) want got)
    golden

let suite = [ Alcotest.test_case "golden digests" `Slow test_golden ]
