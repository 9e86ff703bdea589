(* Digests of what the loop-based baseline (Rp_baselines.Loop_promotion)
   does: one "baseline TARGET IR STATS" line per workload, where IR is
   the MD5 of the promoted program (Pp.prog_to_string) and STATS the
   MD5 of every function's Promote.to_alist in program order, plus one
   line over the first [sample_size] random programs of Rp_progen at
   seed 0x5eed, whose digests hash the per-program ones in order. *)

open Rp_ir
module P = Rp_core.Pipeline
module I = Rp_interp.Interp

let targets =
  List.map
    (fun (w : Rp_workloads.Registry.workload) -> w.Rp_workloads.Registry.name)
    Rp_workloads.Registry.all
  @ [ "gen60"; "gen120"; "gen240"; "gen480" ]

let sample_size = 400

let md5 s = Digest.to_hex (Digest.string s)

(* Prepare [src], attach a measured profile (a static estimate when the
   program traps or runs out of fuel), promote every function with the
   baseline, and hash the result. *)
let digests ~fuel src =
  let prog, trees = P.prepare src in
  (try
     ignore
       (P.attach_profile ~options:{ P.default_options with P.fuel } prog trees)
   with I.Runtime_error _ | I.Out_of_fuel _ ->
     List.iter
       (fun (f : Func.t) ->
         match List.assoc_opt f.Func.fname trees with
         | Some tree -> Rp_analysis.Freq.estimate f tree
         | None -> ())
       prog.Func.funcs);
  let stats = Buffer.create 256 in
  List.iter
    (fun (f : Func.t) ->
      match List.assoc_opt f.Func.fname trees with
      | Some tree ->
          let s =
            Rp_baselines.Loop_promotion.promote_function f prog.Func.vartab tree
          in
          Buffer.add_string stats f.Func.fname;
          List.iter
            (fun (k, v) -> Printf.bprintf stats " %s=%d" k v)
            (Rp_core.Promote.to_alist s);
          Buffer.add_char stats '\n'
      | None -> ())
    prog.Func.funcs;
  (md5 (Pp.prog_to_string prog), md5 (Buffer.contents stats))

let line name (ir, stats) = Printf.sprintf "baseline %s %s %s" name ir stats

let workload_line target =
  match Rp_workloads.Registry.find target with
  | None -> invalid_arg ("unknown workload " ^ target)
  | Some w ->
      line target
        (digests ~fuel:P.default_options.P.fuel w.Rp_workloads.Registry.source)

let sample_line () =
  let programs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 0x5eed |]) ~n:sample_size
      Rp_progen.Progen.gen_program
  in
  let ds = List.map (digests ~fuel:2_000_000) programs in
  line
    (Printf.sprintf "progen-5eed-%d" sample_size)
    ( md5 (String.concat "" (List.map fst ds)),
      md5 (String.concat "" (List.map snd ds)) )

(* the golden file's lines, in order *)
let lines () = List.map workload_line targets @ [ sample_line () ]
