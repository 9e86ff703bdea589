(* perfbench: the promoter's benchmark.

     main.exe --workload promote-seeds|optimise-gen|serve-mixed
              --seed N --seconds S --trace 0|1

   Prints one text line per metric, then, as the last line, a JSON
   object with the keys correct, attempted, failed and metrics: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  With --setup-only it sets the workload up, prints
   "ready <clock>" and exits: the untraced run times set-up on such
   child processes.  See README.md in this directory. *)

open Util

let usage () =
  prerr_endline
    "usage: main.exe --workload promote-seeds|optimise-gen|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := (match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ());
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := int_of_string v;
        parse rest
    | "--setup-only" :: rest ->
        setup_only := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  if not (List.mem !workload [ "promote-seeds"; "optimise-gen"; "serve-mixed" ]) then usage ();
  if traced then Layers.check_benchmark_json "BENCHMARK.json";
  let setup_s () = setup_s [ "--workload"; !workload; "--seed"; string_of_int seed ] in
  let batch make =
    let set_up () =
      let w, setup = make () in
      setup ();
      (* warm-up: one untraced pass *)
      ignore (Batch.untraced_pass w w.Batch.inputs);
      w
    in
    if !setup_only then begin
      ignore (set_up ());
      ready ();
      exit 0
    end;
    if traced then Batch.traced ~seed ~seconds (set_up ())
    else
      let setup_s = setup_s () in
      Batch.untraced ~seed ~seconds (set_up ()) ~setup_s
  in
  let serve () =
    if !setup_only then begin
      let l = Serve.setup () in
      ready ();
      Serve.teardown l;
      exit 0
    end;
    if traced then Serve.traced ~seed ~seconds
    else
      let setup_s = setup_s () in
      Serve.untraced ~seed ~seconds ~setup_s
  in
  let attempted, failed, metrics =
    match !workload with
    | "promote-seeds" -> batch Batch.promote_seeds
    | "optimise-gen" -> batch Batch.optimise_gen
    | _ -> serve ()
  in
  let metrics =
    if traced then Layers.complete metrics else metrics
  in
  if traced then begin
    (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Span.write (Printf.sprintf ".perfbench/spans-%s-%d.jsonl" !workload seed)
  end;
  result_line ~attempted ~failed metrics
