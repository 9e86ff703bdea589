(* Web construction on dense resource ids against the reference.

   [Webs.scan] runs its union-find over int arrays; its classes, as
   [Helpers.webs_in_blocks] lists them, must be those of the
   [Union_find] reference, as sets.  Promotion visits webs in that
   order, which must be the order of first occurrence in the scan: webs
   by their earliest member, and each web's members by their own first
   occurrence.
   Checked on random phi graphs and on every interval of the named
   workloads and gen60.  Also here: the stale-numbering contract of
   [Res_ids], and versions created after a scan arena's first walk. *)

open Rp_ir
open Rp_ssa
module G = QCheck.Gen

let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* A web candidate: a resource of a promotable variable that the
   function renamed (SSA construction leaves the others at version 0). *)
let candidate tab (r : Resource.t) = r.ver > 0 && Resource.promotable tab r.base

(* The web construction as it was written against [Union_find]. *)
let reference_webs (tab : Resource.table) (f : Func.t) (blocks : Ids.IntSet.t)
    : Resource.t list list =
  let uf : Resource.t Union_find.t = Union_find.create () in
  let touch (r : Resource.t) = if candidate tab r then Union_find.add uf r in
  Ids.IntSet.iter
    (fun bid ->
      Block.iter_instrs
        (fun (i : Instr.t) ->
          List.iter touch (Instr.mem_defs i.op);
          List.iter touch (Instr.mem_uses i.op);
          match i.op with
          | Mphi { dst; srcs } ->
              if candidate tab dst then begin
                Union_find.add uf dst;
                List.iter
                  (fun (_, s) ->
                    Union_find.add uf s;
                    Union_find.union uf dst s)
                  srcs
              end
          | _ -> ())
        (Func.block f bid))
    blocks;
  Union_find.classes uf

(* The candidates of the blocks in order of first occurrence:
   blocks by increasing id, instructions in block order, and within an
   instruction the definitions, then the uses, then the phi sources. *)
let first_occurrence (tab : Resource.table) (f : Func.t) (blocks : Ids.IntSet.t)
    : Resource.t list =
  let seen = Hashtbl.create 64 and order = ref [] in
  Ids.IntSet.iter
    (fun bid ->
      Block.iter_instrs
        (fun (i : Instr.t) ->
          Instr.iter_mem
            (fun r ->
              if candidate tab r && not (Hashtbl.mem seen r)
              then begin
                Hashtbl.add seen r ();
                order := r :: !order
              end)
            i.op)
        (Func.block f bid))
    blocks;
  List.rev !order

(* Classes as a set of sets: each class sorted, the classes sorted. *)
let as_sets (webs : Resource.t list list) =
  List.sort compare (List.map (List.sort Resource.compare) webs)

(* [webs] lists each web's members in first-occurrence order, and the
   webs by their first member's; on a failure, what is out of order. *)
let order_error tab f blocks (webs : Resource.t list list) =
  let pos = Hashtbl.create 64 in
  List.iteri (fun k r -> Hashtbl.replace pos r k) (first_occurrence tab f blocks);
  let ascending rs =
    let ps = List.map (Hashtbl.find pos) rs in
    List.sort_uniq compare ps = ps
  in
  if not (List.for_all ascending webs) then
    Some "members not in first-occurrence order"
  else if not (ascending (List.map List.hd webs)) then
    Some "webs not in first-occurrence order"
  else None

(* [got] has the classes of [want] in first-occurrence order; on a
   mismatch, the reason. *)
let check_webs tab f blocks ~got ~want =
  if as_sets got <> as_sets want then Some "classes differ"
  else order_error tab f blocks got

let pp_webs webs =
  String.concat " | "
    (List.map
       (fun w -> String.concat "," (List.map (Format.asprintf "%a" Resource.pp_raw) w))
       webs)

(* ------------------------------------------------------------------ *)
(* Random phi graphs *)

(* An instruction over variables 0..nvars-1 (versions 1..maxver): a phi
   joining versions of one variable, a load, a store, or a call that
   defines and uses versions of several variables, where version 0 (an
   unversioned resource, never a candidate) may appear too. *)
type rinstr =
  | R_phi of int * int * int list
  | R_load of int * int
  | R_store of int * int
  | R_call of (int * int) list * (int * int) list

let gen_graph =
  let open G in
  int_range 1 6 >>= fun nvars ->
  int_range 1 80 >>= fun maxver ->
  let var = int_range 0 (nvars - 1) and ver = int_range 1 maxver in
  let res = pair var ver and res0 = pair var (int_range 0 maxver) in
  let instr =
    frequency
      [
        ( 4,
          map3 (fun v d ss -> R_phi (v, d, ss)) var ver
            (list_size (int_range 1 4) ver) );
        (2, map (fun (v, n) -> R_load (v, n)) res);
        (2, map (fun (v, n) -> R_store (v, n)) res);
        ( 1,
          map2
            (fun ds us -> R_call (ds, us))
            (list_size (int_range 0 5) res0)
            (list_size (int_range 0 5) res0) );
      ]
  in
  int_range 1 4 >>= fun nblocks ->
  list_size (int_range 0 120) (pair (int_range 0 (nblocks - 1)) instr)
  >>= fun code -> return (nvars, maxver, nblocks, code)

let print_graph (nvars, maxver, nblocks, code) =
  Printf.sprintf "vars=%d maxver=%d blocks=%d instrs=%d" nvars maxver nblocks
    (List.length code)

(* Variable 1 is an array, so the promotable filter is exercised. *)
let build_graph (nvars, maxver, nblocks, code) =
  let tab = Resource.create_table () in
  for v = 0 to nvars - 1 do
    let kind = if v = 1 then Resource.Array 4 else Resource.Global in
    ignore (Resource.add_var tab ~name:(Printf.sprintf "v%d" v) ~kind ~init:0)
  done;
  let f = Func.create_func ~name:"g" in
  for v = 0 to nvars - 1 do
    Hashtbl.replace f.Func.mver v maxver
  done;
  let blocks = Array.init nblocks (fun _ -> Func.add_block f) in
  let r (base, ver) = { Resource.base; ver } in
  List.iter
    (fun (k, ri) ->
      let b = blocks.(k) in
      let mk op = Func.mk_instr f op in
      match ri with
      | R_phi (v, d, ss) ->
          Block.add_phi b
            (mk
               (Instr.Mphi
                  { dst = r (v, d); srcs = List.mapi (fun p s -> (p, r (v, s))) ss }))
      | R_load (v, n) ->
          Block.insert_at_end b (mk (Instr.Load { dst = Func.fresh_reg f; src = r (v, n) }))
      | R_store (v, n) ->
          Block.insert_at_end b (mk (Instr.Store { dst = r (v, n); src = Instr.Imm 0 }))
      | R_call (ds, us) ->
          Block.insert_at_end b
            (mk
               (Instr.Call
                  {
                    dst = None;
                    callee = Instr.Extern "ext";
                    args = [];
                    mdefs = List.map r ds;
                    muses = List.map r us;
                  })))
    code;
  (tab, f, Ids.IntSet.of_list (Array.to_list (Array.map (fun b -> b.Block.bid) blocks)))

let prop_random_graphs =
  QCheck.Test.make ~name:"webs = union-find reference (random phi graphs)"
    ~count:500
    (QCheck.make gen_graph ~print:print_graph)
    (fun g ->
      let tab, f, blocks = build_graph g in
      let got = Helpers.webs_in_blocks tab f blocks
      and want = reference_webs tab f blocks in
      as_sets got = as_sets want
      || QCheck.Test.fail_reportf "got  %s\nwant %s" (pp_webs got) (pp_webs want))

let prop_first_occurrence =
  QCheck.Test.make ~name:"webs in first-occurrence order (random phi graphs)"
    ~count:500
    (QCheck.make gen_graph ~print:print_graph)
    (fun g ->
      let tab, f, blocks = build_graph g in
      let got = Helpers.webs_in_blocks tab f blocks in
      match order_error tab f blocks got with
      | None -> true
      | Some why -> QCheck.Test.fail_reportf "%s: %s" why (pp_webs got))

(* ------------------------------------------------------------------ *)
(* Every interval of the named workloads and gen60 *)

let test_workload_intervals () =
  let sources =
    List.map
      (fun (w : Rp_workloads.Registry.workload) ->
        (w.Rp_workloads.Registry.name, w.Rp_workloads.Registry.source))
      Rp_workloads.Registry.all
    @ [ ("gen60", (Rp_workloads.Registry.generated 60).Rp_workloads.Registry.source) ]
  in
  let checked = ref 0 in
  List.iter
    (fun (name, src) ->
      let prog, trees = Rp_core.Pipeline.prepare src in
      List.iter
        (fun (f : Func.t) ->
          match List.assoc_opt f.Func.fname trees with
          | None -> ()
          | Some tree ->
              List.iter
                (fun (iv : Rp_analysis.Intervals.t) ->
                  let blocks = iv.Rp_analysis.Intervals.blocks in
                  let got = Helpers.webs_in_blocks prog.Func.vartab f blocks in
                  let want = reference_webs prog.Func.vartab f blocks in
                  incr checked;
                  match check_webs prog.Func.vartab f blocks ~got ~want with
                  | None -> ()
                  | Some why ->
                      Alcotest.failf "%s/%s interval %d: %s\n got  %s\n want %s"
                        name f.Func.fname iv.Rp_analysis.Intervals.id why
                        (pp_webs got) (pp_webs want))
                tree.Rp_analysis.Intervals.all)
        prog.Func.funcs)
    sources;
  Alcotest.(check bool) "intervals checked" true (!checked > 50)

(* ------------------------------------------------------------------ *)
(* Stale numbering *)

let test_stale_numbering () =
  let f = Func.create_func ~name:"s" in
  let x = 0 and y = 1 in
  let x1 = Func.fresh_ver f x in
  let x2 = Func.fresh_ver f x in
  let y1 = Func.fresh_ver f y in
  let ids = Res_ids.of_func f in
  let y0 = Resource.unversioned y in
  let known = [ Resource.unversioned x; x1; x2; y0; y1 ] in
  let known_ids = List.map (Res_ids.id ids) known in
  Alcotest.(check (list int)) "dense ids" [ 0; 1; 2; 3; 4 ] known_ids;
  Alcotest.(check int) "size" 5 (Res_ids.size ids);
  List.iter
    (fun r ->
      Alcotest.(check bool) "resource inverts id" true
        (Resource.equal r (Res_ids.resource ids (Res_ids.id ids r))))
    known;
  (* created after the numbering: x3 would be off(x) + 3 = y0's id *)
  let x3 = Func.fresh_ver f x in
  Alcotest.(check int) "new version is a miss" Res_ids.miss (Res_ids.id ids x3);
  Alcotest.(check bool) "miss is no resource's id" false
    (List.mem Res_ids.miss known_ids);
  Alcotest.(check int) "unversioned variable is a miss" Res_ids.miss
    (Res_ids.id ids (Resource.unversioned 7));
  (* a web scan numbers resources as it meets them: a version created
     after an arena's first scan is a member of its own *)
  let tab = Resource.create_table () in
  ignore (Resource.add_var tab ~name:"x" ~kind:Resource.Global ~init:0);
  ignore (Resource.add_var tab ~name:"y" ~kind:Resource.Global ~init:0);
  let load b r =
    Block.insert_at_end b
      (Func.mk_instr f (Instr.Load { dst = Func.fresh_reg f; src = r }))
  in
  let b0 = Func.add_block f in
  List.iter (load b0) [ x2; y1 ];
  let arena = Webs.arena () in
  ignore (Webs.scan ~arena tab f (Ids.IntSet.singleton b0.Block.bid));
  let b = Func.add_block f in
  List.iter (load b) [ x3; x2 ];
  let s =
    Webs.scan ~arena tab f (Ids.IntSet.of_list [ b0.Block.bid; b.Block.bid ])
  in
  let members =
    List.init s.Webs.nmembers (fun m -> s.Webs.res.(s.Webs.members.(m)))
  in
  Alcotest.(check bool) "x3 is numbered apart" true
    (List.equal Resource.equal members [ x2; y1; x3 ]
    && s.Webs.nwebs = 3);
  (* a fresh numbering covers it, apart from every other id *)
  let ids' = Res_ids.of_func f in
  Alcotest.(check bool) "fresh numbering covers x3" true
    (Res_ids.id ids' x3 <> Res_ids.miss
    && not (List.mem (Res_ids.id ids' x3) (List.map (Res_ids.id ids') known)))

let suite =
  [
    qtest prop_random_graphs;
    qtest prop_first_occurrence;
    Alcotest.test_case "workload intervals = reference" `Quick
      test_workload_intervals;
    Alcotest.test_case "stale numbering is detected" `Quick test_stale_numbering;
  ]
