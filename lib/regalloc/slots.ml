(* Physical slot assignment: coalesce, then color.

   Coalescing is the aggressive Chaitin scheme over the copy-slack
   graph: walk the copies in program order and merge the two classes
   when they do not (yet) interfere.  Soundness: two registers whose
   classes do not interfere are never simultaneously live with
   different values — the only points the copy-slack graph leaves
   edge-free are exactly the regions where source and destination hold
   the same value, so reads through either name see the right bits
   from the shared slot.

   The quotient graph is then colored with the same simplification
   scheme as the Table 3 analysis ([Color.color]); the color is the
   slot.  Merging classes only ever unions adjacency sets, so the
   quotient stays a correct interference graph for the merged live
   ranges.

   Class state is kept in flat arrays over register ids (members as
   lists, merged adjacency as bitset rows borrowed from the matrix
   until the first merge forces a private copy) — this function runs
   once per function per compile, so it must stay close to the cost of
   the liveness walk itself. *)

open Rp_ir
module UF = Rp_ssa.Union_find

type t = { slot_of : int array; nslots : int }

let assign (f : Func.t) : t =
  let g = Interference.build ~copy_slack:true f in
  let nodes = Interference.occurring f in
  let n = max f.Func.next_reg 1 in
  let uf : Ids.reg UF.t = UF.create () in
  let in_nodes = Array.make n false in
  Ids.IntSet.iter
    (fun r ->
      UF.add uf r;
      in_nodes.(r) <- true)
    nodes;
  (* per-leader member lists and merged adjacency rows; [row] is None
     while the class is a singleton (read the matrix directly) *)
  let members = Array.make n [] in
  let row : int array option array = Array.make n None in
  Ids.IntSet.iter (fun r -> members.(r) <- [ r ]) nodes;
  let class_adj_mem l b =
    match row.(l) with
    | Some a ->
        a.(b / 63) land (1 lsl (b mod 63)) <> 0
    | None -> Interference.interfere g l b
  in
  let class_interferes la lb =
    let ma = members.(la) and mb = members.(lb) in
    if List.compare_lengths ma mb <= 0 then
      List.exists (fun r -> class_adj_mem lb r) ma
    else List.exists (fun r -> class_adj_mem la r) mb
  in
  let row_copy l =
    match row.(l) with
    | Some a -> a
    | None ->
        let a = Array.make ((n + 62) / 63) 0 in
        Interference.iter_adj g l (fun b ->
            a.(b / 63) <- a.(b / 63) lor (1 lsl (b mod 63)));
        a
  in
  let try_merge d s =
    if d < n && s < n && in_nodes.(d) && in_nodes.(s) then begin
      let la = UF.find uf d and lb = UF.find uf s in
      if la <> lb && not (class_interferes la lb) then begin
        let ra = row_copy la and rb = row_copy lb in
        let ma = members.(la) and mb = members.(lb) in
        UF.union uf la lb;
        let l = UF.find uf la in
        Array.iteri (fun i w -> ra.(i) <- w lor rb.(i)) ra;
        row.(l) <- Some ra;
        members.(l) <- List.rev_append ma mb
      end
    end
  in
  Func.iter_blocks
    (fun b ->
      Iseq.iter
        (fun (i : Instr.t) ->
          match i.op with
          | Instr.Copy { dst; src = Instr.Reg s } -> try_merge dst s
          | _ -> ())
        b.Block.body)
    f;
  (* leader of every node, remapped to a compact 0..nl-1 index so the
     quotient matrix and the coloring scans are sized by the number of
     classes, not by the raw register count *)
  let leader = Array.make n (-1) in
  let lidx = Array.make n (-1) in
  let nl = ref 0 in
  Ids.IntSet.iter
    (fun r ->
      let l = UF.find uf r in
      leader.(r) <- l;
      if lidx.(l) < 0 then begin
        lidx.(l) <- !nl;
        incr nl
      end)
    nodes;
  let qg = Interference.create (max !nl 1) in
  let qnodes = ref Ids.IntSet.empty in
  for i = 0 to !nl - 1 do
    qnodes := Ids.IntSet.add i !qnodes
  done;
  Ids.IntSet.iter
    (fun r ->
      let l = leader.(r) in
      if lidx.(l) >= 0 && l = r (* visit each class once, via its leader *)
      then begin
        let li = lidx.(l) in
        let add b =
          let lb = leader.(b) in
          if lb >= 0 && lb <> l then Interference.add_edge qg li lidx.(lb)
        in
        match row.(l) with
        | Some a ->
            Array.iteri
              (fun wi w ->
                let x = ref w in
                while !x <> 0 do
                  let low = !x land - !x in
                  let rec ntz i v =
                    if v land 1 <> 0 then i else ntz (i + 1) (v lsr 1)
                  in
                  add ((wi * 63) + ntz 0 low);
                  x := !x lxor low
                done)
              a
        | None -> Interference.iter_adj g l add
      end)
    nodes;
  let res = Color.color qg !qnodes in
  let slot_of = Array.make n (-1) in
  Ids.IntSet.iter
    (fun r ->
      slot_of.(r) <- Hashtbl.find res.Color.assignment lidx.(leader.(r)))
    nodes;
  { slot_of; nslots = res.Color.colors }
