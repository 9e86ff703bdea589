(* The benchmark's own tracer.  Spans wrap the benchmark's calls into
   the public functions of each layer; nothing inside the libraries is
   instrumented.  Finished spans stay in memory until [write] dumps them
   at the end of the run.

   A layer's cost is its spans' self time: duration minus the part of
   the interval its child spans cover.  The same holds for allocation
   (minor-heap words). *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  root : int;  (** id of the outermost open span at start *)
  req : int;  (** request id in the serve replay, pass number in the batch replays *)
  t0 : float;
  t1 : float;
  words : float;  (** minor words allocated while open *)
}

let enabled = ref false
let request = ref (-1)
let finished : span list ref = ref []
let open_ : (int * int) list ref = ref [] (* (id, root), innermost first *)
let next_id = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, root =
      match !open_ with (p, r) :: _ -> (p, r) | [] -> (-1, id)
    in
    open_ := (id, root) :: !open_;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let words = Gc.minor_words () -. w0 in
        open_ := List.tl !open_;
        finished :=
          { id; name; parent; root; req = !request; t0; t1; words }
          :: !finished)
  end

(* Run [f] with recording switched on. *)
let traced f =
  enabled := true;
  Fun.protect f ~finally:(fun () -> enabled := false)

let duration s = s.t1 -. s.t0

(* Self time (s) and self allocation (words) summed per (root, name),
   plus each root's own duration. *)
type profile = {
  self : (int * string, float * float) Hashtbl.t;
  roots : (int, span) Hashtbl.t;
}

let profile () : profile =
  let spans = !finished in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d, w =
          Option.value (Hashtbl.find_opt child s.parent) ~default:(0.0, 0.0)
        in
        Hashtbl.replace child s.parent (d +. duration s, w +. s.words))
    spans;
  let self = Hashtbl.create 1024 and roots = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent < 0 then Hashtbl.replace roots s.id s
      else
        let cd, cw =
          Option.value (Hashtbl.find_opt child s.id) ~default:(0.0, 0.0)
        in
        let key = (s.root, s.name) in
        let d, w = Option.value (Hashtbl.find_opt self key) ~default:(0.0, 0.0) in
        Hashtbl.replace self key (d +. duration s -. cd, w +. s.words -. cw))
    spans;
  { self; roots }

(* Self time (s) and allocation (words) of layer [name] under [root]. *)
let self_of p ~root name =
  Option.value (Hashtbl.find_opt p.self (root, name)) ~default:(0.0, 0.0)

(* Sum of every layer's self time under [root]. *)
let covered p ~root =
  Hashtbl.fold
    (fun (r, _) (d, _) acc -> if r = root then acc +. d else acc)
    p.self 0.0

let roots_named p name =
  Hashtbl.fold
    (fun _ s acc -> if String.equal s.name name then s :: acc else acc)
    p.roots []

(* One JSON object per span, in start order. *)
let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f}\n"
        s.id s.name s.parent s.req s.t0 s.t1 s.words)
    (List.rev !finished)
