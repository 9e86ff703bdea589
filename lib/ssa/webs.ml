(* Memory SSA web construction (paper section 4.2, Figure 3).

   A web inside an interval is an equivalence class of singleton memory
   resources under the relation "x and y are operands/target of the
   same phi instruction located in the interval", closed transitively.
   The union-find formulation is exactly the paper's.

   Resources that appear in the interval but touch no phi form
   singleton webs — e.g. the distinct names "x1, x2, x3" created by two
   consecutive calls in straight-line code each promote independently,
   which is the finer granularity the paper advertises.

   The union-find runs on int arrays over the function's dense resource
   ids ({!Rp_ir.Res_ids}).  The classes come out in the order of the
   reference {!Union_find.classes}: promotion visits webs in this order,
   so it decides register and version numbering.  That order is the
   iteration order of a Stdlib hash table keyed by resources, which
   {!table_order} computes without building the table. *)

open Rp_ir

(* The order in which [Hashtbl.iter] visits the keys of a table made by
   [Hashtbl.create 16] after adding [keys.(0)], ..., [keys.(n-1)] in
   that order, with [hash k] the [Hashtbl.hash] of key [k].  The table
   doubles its buckets whenever it holds more than two keys per bucket,
   and neither that nor iteration reorders keys within a bucket: it
   visits buckets in index order ([hash land (buckets - 1)]), newest key
   first within each.  So a counting sort by bucket over the keys in
   reverse insertion order reproduces it. *)
let table_order (hash : int -> int) (keys : int array) : int array =
  let n = Array.length keys in
  let buckets = ref 16 in
  while n > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 in
  let bucket = Array.map (fun k -> hash k land mask) keys in
  (* start.(b): first output slot of bucket b *)
  let start = Array.make (!buckets + 1) 0 in
  Array.iter (fun b -> start.(b + 1) <- start.(b + 1) + 1) bucket;
  for b = 1 to !buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let out = Array.make n 0 in
  for j = n - 1 downto 0 do
    let b = bucket.(j) in
    out.(start.(b)) <- keys.(j);
    start.(b) <- start.(b) + 1
  done;
  out

(* All webs of the blocks in [blocks].  Each web is the list of its
   member resources.  Only resources of promotable variables are
   considered; arrays and heap names never form webs. *)
let in_blocks ?ids ?(arena = Res_ids.arena ()) (tab : Resource.table)
    (f : Func.t) (blocks : Ids.IntSet.t) : Resource.t list list =
  let ids = match ids with Some ids -> ids | None -> Res_ids.of_func f in
  (* parent.(i) < 0: resource i is not (yet) a member *)
  let parent = Res_ids.ints arena ids ~slot:0 ~fill:(-1) in
  let rank = Res_ids.ints arena ids ~slot:1 ~fill:0 in
  (* members in first-insertion order *)
  let members = Res_ids.ints arena ids ~slot:2 ~fill:0 and nmembers = ref 0 in
  let add (r : Resource.t) =
    let i = Res_ids.id_exn ids r in
    if parent.(i) < 0 then begin
      parent.(i) <- i;
      members.(!nmembers) <- i;
      incr nmembers
    end;
    i
  in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let root = find p in
      parent.(i) <- root;
      root
    end
  in
  (* union by rank: the same roots as the reference *)
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      let ka = rank.(ra) and kb = rank.(rb) in
      if ka < kb then parent.(ra) <- rb
      else if kb < ka then parent.(rb) <- ra
      else begin
        parent.(rb) <- ra;
        rank.(ra) <- ka + 1
      end
    end
  in
  let touch (r : Resource.t) =
    if Resource.promotable tab r.base then ignore (add r)
  in
  Ids.IntSet.iter
    (fun bid ->
      let b = Func.block f bid in
      Block.iter_instrs
        (fun (i : Instr.t) ->
          List.iter touch (Instr.mem_defs i.op);
          List.iter touch (Instr.mem_uses i.op);
          match i.op with
          | Mphi { dst; srcs } ->
              if Resource.promotable tab dst.Resource.base then begin
                let d = add dst in
                List.iter (fun (_, s) -> union d (add s)) srcs
              end
          | _ -> ())
        b)
    blocks;
  (* The reference groups the members by root in its table's order,
     consing each onto its class, then lists the classes by consing in
     the order of a second table keyed by the roots.  Classes are
     numbered by first appearance in member order. *)
  let resource = Res_ids.resource ids in
  let hash i = Hashtbl.hash (resource i) in
  let order = table_order hash (Array.sub members 0 !nmembers) in
  let class_of = Res_ids.ints arena ids ~slot:3 ~fill:(-1) in
  let roots = ref [] and nclasses = ref 0 in
  Array.iter
    (fun i ->
      let root = find i in
      if class_of.(root) < 0 then begin
        class_of.(root) <- !nclasses;
        incr nclasses;
        roots := root :: !roots
      end)
    order;
  let cls = Array.make !nclasses [] in
  Array.iter
    (fun i ->
      let c = class_of.(find i) in
      cls.(c) <- resource i :: cls.(c))
    order;
  Array.fold_left
    (fun acc root -> cls.(class_of.(root)) :: acc)
    []
    (table_order hash (Array.of_list (List.rev !roots)))
