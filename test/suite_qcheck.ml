(* Property-based tests.

   The most important one generates random MiniC programs (bounded
   loops, random global/local/pointer traffic, calls on random paths)
   and checks that the full promotion pipeline preserves observable
   behaviour — the interpreter is the oracle.  Others check the
   analyses against each other (Cytron vs Sreedhar–Gao IDF), the
   normalisation invariants on random CFGs, and the small algorithmic
   building blocks against naive models. *)

open Rp_ir
open Rp_analysis
module G = QCheck.Gen

(* Fixed generation seed: the properties are statistical claims about
   the pipeline (the profit heuristic can lose on adversarial
   programs), so CI must exercise the same sample every run.  Override
   with QCHECK_SEED to explore. *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* ------------------------------------------------------------------ *)
(* Random CFG generation *)

(* A connected-ish random digraph over n nodes: a random spine plus
   random extra edges (including back edges, so loops and irreducible
   regions appear). *)
let gen_cfg : (int * (int * int) list) G.t =
  let open G in
  int_range 2 14 >>= fun n ->
  (* spine: i -> i+1 ensures reachability of most nodes *)
  let spine = List.init (n - 1) (fun i -> (i, i + 1)) in
  list_size (int_range 0 (2 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  >>= fun extra ->
  let edges =
    List.sort_uniq compare (spine @ extra)
    |> List.filter (fun (a, b) -> a <> b || true)
  in
  (* at most two successors per node (Br limit): keep the first two *)
  let seen = Hashtbl.create 16 in
  let edges =
    List.filter
      (fun (a, _) ->
        let c = match Hashtbl.find_opt seen a with Some c -> c | None -> 0 in
        if c >= 2 then false
        else begin
          Hashtbl.replace seen a (c + 1);
          true
        end)
      edges
  in
  return (n, edges)

let arb_cfg =
  QCheck.make gen_cfg ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges)))

let prop_idf_engines_agree =
  QCheck.Test.make ~name:"cytron IDF = sreedhar-gao IDF" ~count:300 arb_cfg
    (fun (n, edges) ->
      let f = Helpers.func_of_edges ~n edges in
      let dom = Dom.compute f in
      let df = Domfront.compute f dom in
      let dj = Djgraph.build f dom in
      List.for_all
        (fun v ->
          (not (Dom.reachable dom v))
          || Bitset.equal
               (Domfront.iterated df (Bitset.of_list [ v ]))
               (Djgraph.idf dj (Bitset.of_list [ v ])))
        (List.init n (fun i -> i)))

let prop_dom_sound =
  QCheck.Test.make ~name:"idom dominates and lcd is a common dominator"
    ~count:300 arb_cfg (fun (n, edges) ->
      let f = Helpers.func_of_edges ~n edges in
      let dom = Dom.compute f in
      let reach = List.filter (Dom.reachable dom) (List.init n (fun i -> i)) in
      List.for_all
        (fun v ->
          match Dom.idom dom v with
          | None -> v = f.Func.entry
          | Some i -> Dom.strictly_dominates dom ~a:i ~b:v)
        reach
      &&
      match reach with
      | a :: b :: _ ->
          let l = Dom.least_common_dominator dom [ a; b ] in
          Dom.dominates dom ~a:l ~b:a && Dom.dominates dom ~a:l ~b:b
      | _ -> true)

let prop_normalise_invariants =
  QCheck.Test.make ~name:"interval normalisation invariants" ~count:200
    arb_cfg (fun (n, edges) ->
      let f = Helpers.func_of_edges ~n edges in
      let tree = Intervals.normalise f in
      let tab = Resource.create_table () in
      Validate.assert_ok tab f;
      (* no critical edges *)
      List.for_all
        (fun (s, d) -> not (Cfg.is_critical f ~src:s ~dst:d))
        (Cfg.edges f)
      && (Func.block f f.Func.entry).Block.preds = []
      && List.for_all
           (fun (iv : Intervals.t) ->
             iv.Intervals.is_root
             || (not (Ids.IntSet.mem iv.Intervals.preheader iv.Intervals.blocks))
                && List.for_all
                     (fun (src, dst) ->
                       (Func.block f dst).Block.preds = [ src ])
                     iv.Intervals.exit_edges)
           tree.Intervals.all)

let prop_scc_partition =
  QCheck.Test.make ~name:"SCCs partition the node set" ~count:300 arb_cfg
    (fun (n, edges) ->
      let nodes = Ids.IntSet.of_list (List.init n (fun i -> i)) in
      let succs v =
        List.filter_map (fun (a, b) -> if a = v then Some b else None) edges
      in
      let comps = Scc.compute ~nodes ~succs in
      let union =
        List.fold_left
          (fun acc (c : Scc.component) -> Ids.IntSet.union acc c.Scc.nodes)
          Ids.IntSet.empty comps
      in
      let total =
        List.fold_left
          (fun acc (c : Scc.component) -> acc + Ids.IntSet.cardinal c.Scc.nodes)
          0 comps
      in
      Ids.IntSet.equal union nodes && total = n)

(* ------------------------------------------------------------------ *)
(* Random MiniC programs (generated by Rp_progen.Progen) *)

let gen_program = Rp_progen.Progen.gen_program

let arb_program = QCheck.make gen_program ~print:(fun s -> s)

(* run with a fuel bound; a fuel/recursion trap before AND after counts
   as agreeing behaviour *)
let qcheck_options =
  { Rp_core.Pipeline.default_options with fuel = 2_000_000 }

let run_both src =
  let before =
    try Some (Rp_core.Pipeline.run ~options:qcheck_options src) with
    | Rp_interp.Interp.Runtime_error _ | Rp_interp.Interp.Out_of_fuel _ -> None
  in
  before

let prop_promotion_preserves_behaviour =
  QCheck.Test.make ~name:"promotion preserves behaviour (random programs)"
    ~count:250 arb_program (fun src ->
      match run_both src with
      | None -> true (* program traps; pipeline.run compares traps upstream *)
      | Some report -> report.Rp_core.Pipeline.behaviour_ok)

(* force-promote everything: exercises the partial-promotion machinery
   on webs the profit test would normally skip *)
let prop_forced_promotion_preserves_behaviour =
  let cfg =
    {
      Rp_core.Promote.default_config with
      Rp_core.Promote.cost =
        { Rp_core.Cost_model.min_profit = neg_infinity; regs = None };
    }
  in
  QCheck.Test.make ~name:"forced promotion preserves behaviour" ~count:150
    arb_program (fun src ->
      match
        (try
           Some
             (Rp_core.Pipeline.run
                ~options:{ qcheck_options with Rp_core.Pipeline.promote = cfg }
                src)
         with Rp_interp.Interp.Runtime_error _ | Rp_interp.Interp.Out_of_fuel _ -> None)
      with
      | None -> true
      | Some r -> r.Rp_core.Pipeline.behaviour_ok)

let prop_variant_configs_preserve_behaviour =
  QCheck.Test.make ~name:"config variants preserve behaviour" ~count:100
    arb_program (fun src ->
      let check cfg profile singleton =
        match
          (try
             Some
               (Rp_core.Pipeline.run
                  ~options:
                    {
                      qcheck_options with
                      Rp_core.Pipeline.promote = cfg;
                      profile;
                      singleton_deref = singleton;
                    }
                  src)
           with Rp_interp.Interp.Runtime_error _ | Rp_interp.Interp.Out_of_fuel _ -> None)
        with
        | None -> true
        | Some r -> r.Rp_core.Pipeline.behaviour_ok
      in
      let no_stores =
        {
          Rp_core.Promote.default_config with
          Rp_core.Promote.allow_store_removal = false;
        }
      in
      let sg =
        {
          Rp_core.Promote.default_config with
          Rp_core.Promote.engine = Rp_ssa.Incremental.Sreedhar_gao;
        }
      in
      check no_stores Rp_core.Pipeline.Measured false
      && check sg Rp_core.Pipeline.Measured true
      && check Rp_core.Promote.default_config Rp_core.Pipeline.Static_estimate
           false)

let prop_promotion_never_hurts =
  QCheck.Test.make
    ~name:"dynamic loads+stores never increase (random programs)" ~count:250
    arb_program (fun src ->
      match run_both src with
      | None -> true
      | Some r ->
          let b = r.Rp_core.Pipeline.dynamic_before in
          let a = r.Rp_core.Pipeline.dynamic_after in
          a.Rp_interp.Interp.loads + a.Rp_interp.Interp.stores
          <= b.Rp_interp.Interp.loads + b.Rp_interp.Interp.stores)

let prop_ssa_valid_after_promotion =
  QCheck.Test.make ~name:"SSA valid after promotion (random programs)"
    ~count:150 arb_program (fun src ->
      match run_both src with
      | None -> true
      | Some r ->
          List.for_all
            (fun f ->
              Rp_ssa.Verify.check r.Rp_core.Pipeline.prog.Func.vartab f = [])
            r.Rp_core.Pipeline.prog.Func.funcs)

let prop_destruct_after_promotion =
  QCheck.Test.make ~name:"out-of-SSA after promotion preserves behaviour"
    ~count:100 arb_program (fun src ->
      match run_both src with
      | None -> true
      | Some r ->
          let prog = r.Rp_core.Pipeline.prog in
          List.iter Rp_ssa.Destruct.run prog.Func.funcs;
          let final = Rp_interp.Interp.run ~fuel:2_000_000 prog in
          Rp_interp.Interp.same_behaviour r.Rp_core.Pipeline.baseline final)

let prop_baseline_preserves_behaviour =
  QCheck.Test.make ~name:"loop-based baseline preserves behaviour" ~count:150
    arb_program (fun src ->
      match
        (try
           let prog, trees = Rp_core.Pipeline.prepare src in
           let before = Rp_interp.Interp.run ~fuel:2_000_000 prog in
           Rp_interp.Interp.apply_profile prog before;
           ignore (Rp_baselines.Loop_promotion.promote_prog prog trees);
           Rp_opt.Cleanup.run_prog prog;
           let after = Rp_interp.Interp.run ~fuel:2_000_000 prog in
           Some (before, after)
         with Rp_interp.Interp.Runtime_error _ | Rp_interp.Interp.Out_of_fuel _ -> None)
      with
      | None -> true
      | Some (before, after) -> Rp_interp.Interp.same_behaviour before after)

let prop_coloring_sound =
  QCheck.Test.make ~name:"coloring proper and exact (maxlive)"
    ~count:100 arb_program (fun src ->
      let prog = Rp_minic.Lower.compile src in
      List.iter (fun f -> ignore (Intervals.normalise f)) prog.Func.funcs;
      List.iter Rp_ssa.Construct.run prog.Func.funcs;
      Rp_opt.Cleanup.run_prog prog;
      List.for_all
        (fun f ->
          let g = Rp_regalloc.Interference.build f in
          let res =
            Color_oracle.color g (Rp_regalloc.Interference.occurring f)
          in
          Color_oracle.proper g res
          && res.Color_oracle.colors
             = (Rp_regalloc.Color.analyse f ~k:None).Rp_regalloc.Color.s_colors)
        prog.Func.funcs)

(* ------------------------------------------------------------------ *)
(* Small building blocks against naive models *)

let prop_union_find_model =
  let gen_ops =
    G.(
      list_size (int_range 0 60)
        (pair (int_range 0 15) (int_range 0 15)))
  in
  QCheck.Test.make ~name:"union-find matches naive partition" ~count:300
    (QCheck.make gen_ops) (fun unions ->
      let uf : int Union_find.t = Union_find.create () in
      List.iter (fun (a, b) -> Union_find.union uf a b) unions;
      (* naive model: closure over the union pairs *)
      let connected a b =
        let adj = Hashtbl.create 16 in
        List.iter
          (fun (x, y) ->
            Hashtbl.add adj x y;
            Hashtbl.add adj y x)
          unions;
        let seen = Hashtbl.create 16 in
        let rec dfs v =
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            List.iter dfs (Hashtbl.find_all adj v)
          end
        in
        dfs a;
        Hashtbl.mem seen b
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Union_find.same uf a b = connected a b)
            (List.init 16 Fun.id))
        (List.init 16 Fun.id))

(* Iseq against the obvious list model: random edit scripts must leave
   both containers with identical contents in identical order. *)
let prop_iseq_model =
  let gen_ops =
    G.(list_size (int_range 0 50) (pair (int_range 0 6) (int_range 0 40)))
  in
  QCheck.Test.make ~name:"iseq matches list model" ~count:500
    (QCheck.make gen_ops) (fun ops ->
      let f = Func.create_func ~name:"m" in
      let b = Func.add_block f in
      let seq = b.Block.body in
      let model : Instr.t list ref = ref [] in
      let mk () = Func.mk_instr f (Instr.Copy { dst = 0; src = Instr.Imm 0 }) in
      let pick k =
        match !model with
        | [] -> None
        | l -> Some (List.nth l (k mod List.length l))
      in
      let insert_model ~before iid i l =
        List.concat_map
          (fun (j : Instr.t) ->
            if j.Instr.iid = iid then if before then [ i; j ] else [ j; i ]
            else [ j ])
          l
      in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
              let i = mk () in
              Iseq.push_front seq i;
              model := i :: !model
          | 1 ->
              let i = mk () in
              Iseq.push_back seq i;
              model := !model @ [ i ]
          | 2 -> (
              match pick k with
              | None -> ()
              | Some t ->
                  let i = mk () in
                  Iseq.insert_before seq ~iid:t.Instr.iid i;
                  model := insert_model ~before:true t.Instr.iid i !model)
          | 3 -> (
              match pick k with
              | None -> ()
              | Some t ->
                  let i = mk () in
                  Iseq.insert_after seq ~iid:t.Instr.iid i;
                  model := insert_model ~before:false t.Instr.iid i !model)
          | 4 -> (
              match pick k with
              | None -> ()
              | Some t ->
                  Iseq.remove seq ~iid:t.Instr.iid;
                  model :=
                    List.filter
                      (fun (j : Instr.t) -> j.Instr.iid <> t.Instr.iid)
                      !model)
          | 5 ->
              let keep (i : Instr.t) = i.Instr.iid mod 3 <> k mod 3 in
              Iseq.filter_in_place keep seq;
              model := List.filter keep !model
          | _ -> (
              (* removal while iterating: drop every other instruction *)
              let parity = ref false in
              Iseq.iter
                (fun (i : Instr.t) ->
                  parity := not !parity;
                  if !parity then Iseq.remove seq ~iid:i.Instr.iid)
                seq;
              let parity = ref false in
              model :=
                List.filter
                  (fun (_ : Instr.t) ->
                    parity := not !parity;
                    not !parity)
                  !model))
        ops;
      let iids l = List.map (fun (i : Instr.t) -> i.Instr.iid) l in
      iids (Iseq.to_list seq) = iids !model
      && Iseq.length seq = List.length !model
      && List.for_all (fun (i : Instr.t) -> Iseq.mem seq i.Instr.iid) !model)

(* Bitset against Ids.IntSet: the dataflow kernels' set algebra must
   agree with the functional sets it replaced. *)
let prop_bitset_model =
  let gen_ops =
    G.(list_size (int_range 0 60) (pair (int_range 0 4) (int_range 0 200)))
  in
  QCheck.Test.make ~name:"bitset matches IntSet model" ~count:500
    (QCheck.make (G.pair gen_ops gen_ops)) (fun (ops_a, ops_b) ->
      let apply ops =
        let bs = Bitset.empty () in
        let is = ref Ids.IntSet.empty in
        List.iter
          (fun (op, k) ->
            match op with
            | 0 | 1 ->
                Bitset.add bs k;
                is := Ids.IntSet.add k !is
            | 2 ->
                Bitset.remove bs k;
                is := Ids.IntSet.remove k !is
            | _ -> ())
          ops;
        (bs, !is)
      in
      let a_bs, a_is = apply ops_a in
      let b_bs, b_is = apply ops_b in
      let union_changed = Bitset.union_into ~into:a_bs b_bs in
      let u_is = Ids.IntSet.union a_is b_is in
      let union_ok =
        Bitset.elements a_bs = Ids.IntSet.elements u_is
        && union_changed = not (Ids.IntSet.equal u_is a_is)
      in
      let diff_changed = Bitset.diff_into ~into:a_bs b_bs in
      let d_is = Ids.IntSet.diff u_is b_is in
      let diff_ok =
        Bitset.elements a_bs = Ids.IntSet.elements d_is
        && diff_changed = not (Ids.IntSet.equal d_is u_is)
      in
      union_ok && diff_ok
      && Bitset.cardinal a_bs = Ids.IntSet.cardinal d_is
      && Bitset.is_empty a_bs = Ids.IntSet.is_empty d_is
      && Bitset.equal a_bs (Bitset.of_intset (Bitset.to_intset a_bs))
      && List.for_all
           (fun e -> Bitset.mem a_bs e = Ids.IntSet.mem e d_is)
           (List.init 210 Fun.id))

let prop_parallel_move =
  let gen_moves =
    G.(
      list_size (int_range 0 8) (pair (int_range 0 7) (int_range 0 9)))
  in
  QCheck.Test.make ~name:"parallel move sequentialisation" ~count:500
    (QCheck.make gen_moves) (fun raw ->
      (* dedupe destinations: a parallel copy assigns each dst once *)
      let moves =
        List.fold_left
          (fun acc (d, s) ->
            if List.mem_assoc d acc then acc else (d, Instr.Reg s) :: acc)
          [] raw
      in
      let f = Func.create_func ~name:"t" in
      f.Func.next_reg <- 100;
      let seq = Rp_ssa.Destruct.sequentialise f moves in
      (* simulate both *)
      let init r = r * 10 in
      let parallel = Hashtbl.create 8 in
      List.iter
        (fun (d, s) ->
          match s with
          | Instr.Reg r -> Hashtbl.replace parallel d (init r)
          | Instr.Imm n -> Hashtbl.replace parallel d n)
        moves;
      let env = Hashtbl.create 8 in
      let get r = match Hashtbl.find_opt env r with Some v -> v | None -> init r in
      List.iter
        (fun (d, s) ->
          let v =
            match s with Instr.Reg r -> get r | Instr.Imm n -> n
          in
          Hashtbl.replace env d v)
        seq;
      List.for_all
        (fun (d, _) -> get d = Hashtbl.find parallel d)
        moves)

let suite =
  [
    qtest prop_idf_engines_agree;
    qtest prop_dom_sound;
    qtest prop_normalise_invariants;
    qtest prop_scc_partition;
    qtest prop_promotion_preserves_behaviour;
    qtest prop_forced_promotion_preserves_behaviour;
    qtest prop_variant_configs_preserve_behaviour;
    qtest prop_promotion_never_hurts;
    qtest prop_ssa_valid_after_promotion;
    qtest prop_destruct_after_promotion;
    qtest prop_baseline_preserves_behaviour;
    qtest prop_coloring_sound;
    qtest prop_union_find_model;
    qtest prop_iseq_model;
    qtest prop_bitset_model;
    qtest prop_parallel_move;
  ]
