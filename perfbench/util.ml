(* Shared helpers: clocks, order statistics, peak memory, seeded
   shuffles, the named inputs and the result lines. *)

module P = Rp_core.Pipeline
module Registry = Rp_workloads.Registry

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile (xs : float list) q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* The highest percentile of a fixed ladder that leaves at least ten
   samples beyond it (50 when there are too few samples). *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.0; 98.0; 95.0; 90.0; 80.0; 75.0 ]
  |> Option.value ~default:50.0

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  scan ()

(* One random stream per (seed, purpose). *)
let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st (a : 'a array) =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The named programs with the CLI defaults; the stencil/DSP family is
   run with scalar replacement on, as its workload descriptions
   intend. *)
type input = { name : string; source : string; options : P.options }

let scalrep_family = [ "blur"; "dot"; "lpc" ]

let named_inputs () =
  List.map
    (fun (w : Registry.workload) ->
      {
        name = w.Registry.name;
        source = w.Registry.source;
        options =
          { P.default_options with P.scalrep = List.mem w.Registry.name scalrep_family };
      })
    Registry.all

(* Set-up time.  [setup_s args] runs this executable [setup_reps] times
   in turn with [args] and [--setup-only]; each child sets up the
   workload from nothing (inputs, references, daemon, warm-up), prints
   [ready] and exits.  A child is timed from its spawn until the clock
   reading it prints, so process start and every first-time cost count
   in each sample.  Returns the median and the samples in run order. *)
let setup_reps = 5

let ready () = Printf.printf "ready %.6f\n%!" (now ())

let setup_s (args : string list) : float * float list =
  let once () =
    let r, w = Unix.pipe ~cloexec:true () in
    let t0 = now () in
    let pid =
      Unix.create_process Sys.executable_name
        (Array.of_list ((Sys.executable_name :: args) @ [ "--setup-only" ]))
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    let out =
      let ic = Unix.in_channel_of_descr r in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
    in
    match (Unix.waitpid [] pid, String.split_on_char '\n' out) with
    | (_, Unix.WEXITED 0), line :: _ -> (
        match Scanf.sscanf_opt line "ready %f" (fun t -> t -. t0) with
        | Some d -> d
        | None -> failwith "perfbench: a set-up process printed no ready line")
    | _ -> failwith "perfbench: a set-up process failed"
  in
  let samples = List.init setup_reps (fun _ -> once ()) in
  (median samples, samples)

(* Human-readable metric lines go to stdout before the final JSON line. *)
let say fmt = Printf.printf (fmt ^^ "\n%!")

let print_setup (median, samples) =
  say "%-16s %.4f s  (median of %d fresh processes, spawn to ready: %s)" "setup_s" median
    (List.length samples)
    (String.concat ", " (List.map (Printf.sprintf "%.4f") samples))

type metric = { mname : string; value : float; unit_ : string }

let m mname value unit_ = { mname; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~attempted ~failed (metrics : metric list) =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname
          (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " body)
