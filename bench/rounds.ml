(* The harness's one timing rule and its summary statistics.

   Every timed number in bench/ comes out of [interleave]: one warm-up
   run of each subject, then [rounds] rounds that run every subject
   once, round r starting at subject r mod n.  Each subject thus leads
   equally often, and a slow patch of machine time hits all subjects
   alike.  A number is reported as the median over the rounds with its
   interquartile range; a comparison between two subjects is the
   median of the per-round ratios. *)

type spread = { median : float; iqr : float }

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* linear interpolation between the closest ranks of sorted [s] *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let quartiles a =
  let s = sorted a in
  (quantile s 0.25, quantile s 0.5, quantile s 0.75)

let median a = quantile (sorted a) 0.5

let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let spread a =
  let q1, m, q3 = quartiles a in
  { median = m; iqr = q3 -. q1 }

let wall_ms f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1000.0

type runs = (string * float array) list

let interleave ~rounds (subjects : (unit -> (string * float) list) list) :
    runs list =
  let subjects = Array.of_list subjects in
  let n = Array.length subjects in
  (* level the major heap first: garbage an earlier section left behind
     would tax whichever subject runs while it is collected *)
  Gc.compact ();
  Array.iter (fun s -> ignore (s ())) subjects;
  let got = Array.make_matrix n rounds [] in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (r + k) mod n in
      got.(i).(r) <- subjects.(i) ()
    done
  done;
  Array.to_list
    (Array.map
       (fun per_round ->
         List.map
           (fun (name, _) -> (name, Array.map (List.assoc name) per_round))
           per_round.(0))
       got)

let samples (r : runs) name = List.assoc name r

let summary (r : runs) name = spread (samples r name)

let ratio (a : runs) (b : runs) name =
  spread (Array.map2 ( /. ) (samples a name) (samples b name))
