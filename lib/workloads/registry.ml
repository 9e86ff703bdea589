(* The benchmark suite: eight MiniC programs named after the SPECInt95
   benchmarks of the paper's evaluation, each engineered to echo the
   published opportunity profile (see each module's header and
   DESIGN.md for the correspondence), plus the stencil/DSP family
   (blur, dot, lpc) built around affine array reuse that only the
   --scalrep pre-pass can promote. *)

type workload = {
  name : string;
  description : string;
  source : string;
}

(* The distinctive main-loop bound of each workload, so experiments can
   derive a smaller "training input" of the same program (classic PGO
   methodology: profile on train, measure on ref). *)
let scale_patterns =
  [
    ("go", "round < 40");
    ("li", "round < 60");
    ("ijpeg", "round < 12");
    ("perl", "round < 25");
    ("m88k", "n < 6000");
    ("sc", "round < 30");
    ("compr", "n < 12000");
    ("vortex", "n < 2500");
    ("blur", "round < 200");
    ("dot", "round < 150");
    ("lpc", "round < 120");
  ]

(* Replace the first occurrence of [pat] in [s] with [rep]. *)
let replace_once s pat rep =
  match String.index_opt s pat.[0] with
  | None -> s
  | Some _ ->
      let plen = String.length pat in
      let n = String.length s in
      let rec find i =
        if i + plen > n then None
        else if String.sub s i plen = pat then Some i
        else find (i + 1)
      in
      (match find 0 with
      | None -> s
      | Some i ->
          String.sub s 0 i ^ rep ^ String.sub s (i + plen) (n - i - plen))

let all : workload list =
  [
    { name = W_go.name; description = W_go.description; source = W_go.source };
    { name = W_li.name; description = W_li.description; source = W_li.source };
    {
      name = W_ijpeg.name;
      description = W_ijpeg.description;
      source = W_ijpeg.source;
    };
    {
      name = W_perl.name;
      description = W_perl.description;
      source = W_perl.source;
    };
    {
      name = W_m88k.name;
      description = W_m88k.description;
      source = W_m88k.source;
    };
    { name = W_sc.name; description = W_sc.description; source = W_sc.source };
    {
      name = W_compr.name;
      description = W_compr.description;
      source = W_compr.source;
    };
    {
      name = W_vortex.name;
      description = W_vortex.description;
      source = W_vortex.source;
    };
    {
      name = W_blur.name;
      description = W_blur.description;
      source = W_blur.source;
    };
    {
      name = W_dot.name;
      description = W_dot.description;
      source = W_dot.source;
    };
    {
      name = W_lpc.name;
      description = W_lpc.description;
      source = W_lpc.source;
    };
  ]

(* Synthetic scaling workloads: "gen<n>" is generated on demand by
   [Gen.source], alongside the fixed SPEC-named programs. *)
let generated (n : int) : workload =
  let n = max 1 n in
  { name = Gen.name_of n; description = Gen.description n; source = Gen.source n }

(* The largest [n] a "gen<n>" name resolves to.  Past it, [find]
   answers "unknown workload": a name arrives from the command line or
   a daemon frame, and generating gen200000000 exhausts the heap while
   larger ones never finish.  gen10000 is about 20 times gen480, the
   largest size the benchmarks use. *)
let max_generated = 10_000

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> Some w
  | None ->
      if String.length name > 3 && String.sub name 0 3 = "gen" then
        match int_of_string_opt (String.sub name 3 (String.length name - 3)) with
        | Some n when n > 0 && n <= max_generated -> Some (generated n)
        | _ -> None
      else None

(* The same program with its main loop bound divided by [factor] — a
   smaller training input.  The CFG (and so every block id) is
   identical to the full program's: only one immediate differs. *)
let train_source (w : workload) ~(factor : int) : string =
  match List.assoc_opt w.name scale_patterns with
  | None -> w.source
  | Some pat -> (
      (* pat looks like "var < N" *)
      match String.rindex_opt pat ' ' with
      | None -> w.source
      | Some i ->
          let prefix = String.sub pat 0 (i + 1) in
          let n = int_of_string (String.sub pat (i + 1) (String.length pat - i - 1)) in
          let small = max 1 (n / factor) in
          replace_once w.source pat (prefix ^ string_of_int small))
