(* Tarjan's strongly-connected-components algorithm, iterative so deep
   CFGs from the property-based tests cannot overflow the OCaml stack.

   Operates on an arbitrary integer-labelled subgraph: the caller passes
   the node set and a successor function already restricted to the
   subgraph.  Returns the components in reverse topological order
   (callees before callers along the condensation). *)

open Rp_ir

type component = { nodes : Ids.IntSet.t; has_self_loop : bool }

(* A component is a non-trivial SCC (an interval candidate) if it has
   more than one node or a self loop. *)
let non_trivial c = Ids.IntSet.cardinal c.nodes > 1 || c.has_self_loop

let compute ~(nodes : Ids.IntSet.t) ~(succs : int -> int list) :
    component list =
  if Ids.IntSet.is_empty nodes then []
  else
    (* per-node state in arrays over [0 .. max node]: index -1 is
       "not yet visited" *)
    let n = Ids.IntSet.max_elt nodes + 1 in
    let member = Array.make n false in
    Ids.IntSet.iter (fun v -> member.(v) <- true) nodes;
    let index = Array.make n (-1) and lowlink = Array.make n 0 in
    let on_stack = Array.make n false and self_loop = Array.make n false in
    let stack = ref [] in
    let next_index = ref 0 in
    let components = ref [] in
    let in_graph v = v >= 0 && v < n && member.(v) in
    (* explicit DFS machine: each frame is (node, remaining successors) *)
    let strongconnect v0 =
      let frames = ref [] in
      let push_node v =
        index.(v) <- !next_index;
        lowlink.(v) <- !next_index;
        incr next_index;
        stack := v :: !stack;
        on_stack.(v) <- true;
        frames := (v, ref (List.filter in_graph (succs v))) :: !frames
      in
      push_node v0;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, rem) :: rest -> (
            match !rem with
            | w :: ws ->
                rem := ws;
                if w = v then self_loop.(v) <- true;
                if index.(w) < 0 then push_node w
                else if on_stack.(w) then
                  lowlink.(v) <- min lowlink.(v) index.(w)
            | [] ->
                (* finish v *)
                if lowlink.(v) = index.(v) then begin
                  let comp = ref [] and has_self_loop = ref false in
                  let continue = ref true in
                  while !continue do
                    match !stack with
                    | [] -> continue := false
                    | w :: tl ->
                        stack := tl;
                        on_stack.(w) <- false;
                        comp := w :: !comp;
                        if self_loop.(w) then has_self_loop := true;
                        if w = v then continue := false
                  done;
                  let nodes = Ids.IntSet.of_list !comp in
                  components :=
                    { nodes; has_self_loop = !has_self_loop } :: !components
                end;
                frames := rest;
                (* propagate lowlink into the parent *)
                (match rest with
                | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
                | [] -> ()))
      done
    in
    Ids.IntSet.iter (fun v -> if index.(v) < 0 then strongconnect v) nodes;
    !components
