(* Register-file execution engine.

   Executes the slot-addressed bytecode produced by [Rcompile], with
   the exact observable semantics of the tree-walking oracle in
   [Interp] (and therefore of the flat engine): same exit value, print
   trace, dynamic counters, block/edge/call counts, and the same error
   messages raised at the same execution points.

   Every storage location is a (value, kind) pair of adjacent words in
   one untagged [int array]: kind [-1] is an integer, kind [>= 0] a
   pointer with the kind holding the base vid and the value word the
   element offset.  Activation frames are carved from a contiguous
   stack ([rt.stk], grown by doubling), so a call allocates nothing:
   it bumps [rt.sp], saves the callee's address-taken locals into the
   frame's save area and writes the arguments straight into the
   callee's parameter slots.

   Fuel is charged per segment (see [Rcompile]); a deduction that
   would exhaust the budget flips the engine into slow mode, where
   each instruction charges its exact tick count from the side table,
   so [Out_of_fuel] fires at the oracle's precise point.  Dynamic
   instruction/load/store counters are reconstructed from block
   execution counts after a successful run. *)

let fail fmt = Format.kasprintf (fun m -> raise (Interp.Runtime_error m)) fmt

(* Keep the literal opcode values the dispatch loop matches on in sync
   with the compiler's emitters. *)
let () =
  assert (
    Rcompile.(
      op_bin_rr = 0 && op_bin_ri = 1 && op_bin_ir = 2 && op_bin_ii = 3
      && op_un_r = 4 && op_un_i = 5 && op_copy_r = 6 && op_copy_i = 7
      && op_load = 8 && op_store_r = 9 && op_store_i = 10 && op_addr_r = 11
      && op_addr_i = 12 && op_pload_r = 13 && op_pload_i = 14
      && op_pstore = 15 && op_call = 16 && op_xcall = 17
      && op_call_unknown = 18 && op_trap_rphi = 19 && op_print_r = 20
      && op_print_i = 21 && op_jmp = 22 && op_br = 23 && op_ret_r = 24
      && op_ret_i = 25 && op_ret_void = 26 && op_cbr_rr = 27 && op_cbr_ri = 28
      && op_bin2 = 31 && op_load2 = 32 && op_bin_store = 33 && op_mm_bin = 34
      && op_mm_bin_store = 35 && op_mm_bin2 = 38 && op_mm_bin2_store = 39
      && op_abin_pstore = 40 && op_copy_n = 41 && op_bst_bin2 = 42))

type rt = {
  cp : Rcompile.t;
  mem : int array;  (** scalar cells, interleaved (value, kind) *)
  amem : int array array;  (** array elements by vid, interleaved *)
  mutable stk : int array;  (** the frame stack *)
  mutable sp : int;
  mutable fuel : int;
  budget : int;
  mutable slow : bool;  (** exact per-instruction fuel accounting *)
  bcounts : int array;
  ecounts : int array;
  ccounts : int array;
  mutable output_rev : int list;
  mutable depth : int;
  mutable extern_counter : int;
  (* result scratch for the out-of-line value paths *)
  mutable vv : int;
  mutable vk : int;
  (* return-value channel: kind -2 = the callee returned nothing *)
  mutable rk : int;
  mutable rv : int;
}

(* The pointer cases of a binop; called when at least one kind word is
   a vid.  Leaves the result in the scratch. *)
let binop_slow rt bop lv lk rv rk =
  let ptr v k =
    rt.vv <- v;
    rt.vk <- k
  in
  let int n =
    rt.vv <- n;
    rt.vk <- -1
  in
  let bool_ p = int (if p then 1 else 0) in
  if bop = 0 && lk >= 0 && rk < 0 then ptr (lv + rv) lk
  else if bop = 0 && lk < 0 && rk >= 0 then ptr (rv + lv) rk
  else if bop = 1 && lk >= 0 && rk < 0 then ptr (lv - rv) lk
  else if lk >= 0 && rk >= 0 then
    match bop with
    | 9 (* Eq *) -> bool_ (lk = rk && lv = rv)
    | 10 (* Ne *) -> bool_ (not (lk = rk && lv = rv))
    | 5 (* Lt *) -> bool_ (lk = rk && lv < rv)
    | 6 (* Le *) -> bool_ (lk = rk && lv <= rv)
    | 7 (* Gt *) -> bool_ (lk = rk && lv > rv)
    | 8 (* Ge *) -> bool_ (lk = rk && lv >= rv)
    | _ -> fail "pointer used as an integer"
  else fail "pointer used as an integer"

(* Dereference the pointer (pv, pk), leaving the value in the
   scratch. *)
let read_ptr rt pv pk =
  if pk >= 0 then begin
    let len = rt.cp.Rcompile.rarray_len.(pk) in
    if len >= 0 then begin
      if pv < 0 || pv >= len then
        fail "array index %d out of bounds for array of %d" pv len;
      let a = rt.amem.(pk) in
      rt.vv <- a.(2 * pv);
      rt.vk <- a.((2 * pv) + 1)
    end
    else begin
      if pv <> 0 then fail "scalar pointer with non-zero offset";
      rt.vv <- rt.mem.(2 * pk);
      rt.vk <- rt.mem.((2 * pk) + 1)
    end
  end
  else if pv = 0 then fail "null pointer dereference"
  else fail "integer used as a pointer"

(* Store (sv, sk) through the pointer (pv, pk). *)
let write_ptr rt pv pk sv sk =
  if pk >= 0 then begin
    let len = rt.cp.Rcompile.rarray_len.(pk) in
    if len >= 0 then begin
      if pv < 0 || pv >= len then
        fail "array index %d out of bounds for array of %d" pv len;
      let a = rt.amem.(pk) in
      a.(2 * pv) <- sv;
      a.((2 * pv) + 1) <- sk
    end
    else begin
      if pv <> 0 then fail "scalar pointer with non-zero offset";
      rt.mem.(2 * pk) <- sv;
      rt.mem.((2 * pk) + 1) <- sk
    end
  end
  else if pv = 0 then fail "null pointer dereference"
  else fail "integer used as a pointer"

(* The superinstruction arms index [code], the value stack and [mem]
   with emitter-generated operands whose bounds are established when
   the image is packed (frame sizing, memory layout), so they use
   unchecked accesses; the baseline arms keep the checked idiom. *)
let[@inline] ug (a : int array) (i : int) = Array.unsafe_get a i
let[@inline] us (a : int array) (i : int) (v : int) = Array.unsafe_set a i v

(* Integer fast path of a binop, shared by the fused arms (the plain
   arms keep their inlined copies). *)
let[@inline] binop_int (bop : int) (lv : int) (rv : int) : int =
  match bop with
  | 0 -> lv + rv
  | 1 -> lv - rv
  | 2 -> lv * rv
  | 3 -> if rv = 0 then fail "division by zero" else lv / rv
  | 4 -> if rv = 0 then fail "division by zero" else lv mod rv
  | 5 -> if lv < rv then 1 else 0
  | 6 -> if lv <= rv then 1 else 0
  | 7 -> if lv > rv then 1 else 0
  | 8 -> if lv >= rv then 1 else 0
  | 9 -> if lv = rv then 1 else 0
  | 10 -> if lv <> rv then 1 else 0
  | 11 -> lv land rv
  | 12 -> lv lor rv
  | 13 -> lv lxor rv
  | 14 -> lv lsl (rv land 63)
  | _ -> lv asr (rv land 63)

(* Deduct a fuel segment: never raises — when the budget would be
   exhausted the engine flips to exact per-instruction accounting
   instead, *without* deducting. *)
let[@inline] deduct rt (cost : int) =
  if not rt.slow then begin
    let f = rt.fuel - cost in
    if f > 0 then rt.fuel <- f else rt.slow <- true
  end

(* ------------------------------------------------------------------ *)

let rec exec (rt : rt) (rf : Rcompile.rfunc) (fp : int) =
  let code = rf.Rcompile.rcode in
  let ticks = rf.Rcompile.rticks in
  let stk = ref rt.stk in
  let pc = ref rf.Rcompile.entry_off in
  let running = ref true in
  while !running do
    let base = !pc in
    if rt.slow then begin
      let tk = ticks.(base) in
      if tk > 0 then begin
        rt.fuel <- rt.fuel - tk;
        if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
      end
    end;
    match code.(base) with
    | 0 (* bin_rr: bop dst l r *) ->
        let s = !stk in
        let l = fp + code.(base + 3) and r = fp + code.(base + 4) in
        let lv = s.(l) and lk = s.(l + 1) in
        let rv = s.(r) and rk = s.(r + 1) in
        let d = fp + code.(base + 2) in
        if lk land rk < 0 then begin
          let z =
            match code.(base + 1) with
            | 0 -> lv + rv
            | 1 -> lv - rv
            | 2 -> lv * rv
            | 3 -> if rv = 0 then fail "division by zero" else lv / rv
            | 4 -> if rv = 0 then fail "division by zero" else lv mod rv
            | 5 -> if lv < rv then 1 else 0
            | 6 -> if lv <= rv then 1 else 0
            | 7 -> if lv > rv then 1 else 0
            | 8 -> if lv >= rv then 1 else 0
            | 9 -> if lv = rv then 1 else 0
            | 10 -> if lv <> rv then 1 else 0
            | 11 -> lv land rv
            | 12 -> lv lor rv
            | 13 -> lv lxor rv
            | 14 -> lv lsl (rv land 63)
            | _ -> lv asr (rv land 63)
          in
          s.(d) <- z;
          s.(d + 1) <- -1
        end
        else begin
          binop_slow rt code.(base + 1) lv lk rv rk;
          s.(d) <- rt.vv;
          s.(d + 1) <- rt.vk
        end;
        pc := base + 5
    | 1 (* bin_ri: bop dst l imm *) ->
        let s = !stk in
        let l = fp + code.(base + 3) in
        let lv = s.(l) and lk = s.(l + 1) in
        let rv = code.(base + 4) in
        let d = fp + code.(base + 2) in
        if lk < 0 then begin
          let z =
            match code.(base + 1) with
            | 0 -> lv + rv
            | 1 -> lv - rv
            | 2 -> lv * rv
            | 3 -> if rv = 0 then fail "division by zero" else lv / rv
            | 4 -> if rv = 0 then fail "division by zero" else lv mod rv
            | 5 -> if lv < rv then 1 else 0
            | 6 -> if lv <= rv then 1 else 0
            | 7 -> if lv > rv then 1 else 0
            | 8 -> if lv >= rv then 1 else 0
            | 9 -> if lv = rv then 1 else 0
            | 10 -> if lv <> rv then 1 else 0
            | 11 -> lv land rv
            | 12 -> lv lor rv
            | 13 -> lv lxor rv
            | 14 -> lv lsl (rv land 63)
            | _ -> lv asr (rv land 63)
          in
          s.(d) <- z;
          s.(d + 1) <- -1
        end
        else begin
          binop_slow rt code.(base + 1) lv lk rv (-1);
          s.(d) <- rt.vv;
          s.(d + 1) <- rt.vk
        end;
        pc := base + 5
    | 2 (* bin_ir: bop dst imm r *) ->
        let s = !stk in
        let r = fp + code.(base + 4) in
        let lv = code.(base + 3) in
        let rv = s.(r) and rk = s.(r + 1) in
        let d = fp + code.(base + 2) in
        if rk < 0 then begin
          let z =
            match code.(base + 1) with
            | 0 -> lv + rv
            | 1 -> lv - rv
            | 2 -> lv * rv
            | 3 -> if rv = 0 then fail "division by zero" else lv / rv
            | 4 -> if rv = 0 then fail "division by zero" else lv mod rv
            | 5 -> if lv < rv then 1 else 0
            | 6 -> if lv <= rv then 1 else 0
            | 7 -> if lv > rv then 1 else 0
            | 8 -> if lv >= rv then 1 else 0
            | 9 -> if lv = rv then 1 else 0
            | 10 -> if lv <> rv then 1 else 0
            | 11 -> lv land rv
            | 12 -> lv lor rv
            | 13 -> lv lxor rv
            | 14 -> lv lsl (rv land 63)
            | _ -> lv asr (rv land 63)
          in
          s.(d) <- z;
          s.(d + 1) <- -1
        end
        else begin
          binop_slow rt code.(base + 1) lv (-1) rv rk;
          s.(d) <- rt.vv;
          s.(d + 1) <- rt.vk
        end;
        pc := base + 5
    | 3 (* bin_ii: bop dst imm imm *) ->
        let s = !stk in
        let lv = code.(base + 3) and rv = code.(base + 4) in
        let d = fp + code.(base + 2) in
        let z =
          match code.(base + 1) with
          | 0 -> lv + rv
          | 1 -> lv - rv
          | 2 -> lv * rv
          | 3 -> if rv = 0 then fail "division by zero" else lv / rv
          | 4 -> if rv = 0 then fail "division by zero" else lv mod rv
          | 5 -> if lv < rv then 1 else 0
          | 6 -> if lv <= rv then 1 else 0
          | 7 -> if lv > rv then 1 else 0
          | 8 -> if lv >= rv then 1 else 0
          | 9 -> if lv = rv then 1 else 0
          | 10 -> if lv <> rv then 1 else 0
          | 11 -> lv land rv
          | 12 -> lv lor rv
          | 13 -> lv lxor rv
          | 14 -> lv lsl (rv land 63)
          | _ -> lv asr (rv land 63)
        in
        s.(d) <- z;
        s.(d + 1) <- -1;
        pc := base + 5
    | 4 (* un_r: uop dst s *) ->
        let s = !stk in
        let o = fp + code.(base + 3) in
        let v = s.(o) and k = s.(o + 1) in
        if k >= 0 then fail "pointer used as an integer";
        let d = fp + code.(base + 2) in
        s.(d) <- (if code.(base + 1) = 0 then -v else if v = 0 then 1 else 0);
        s.(d + 1) <- -1;
        pc := base + 4
    | 5 (* un_i: uop dst imm *) ->
        let s = !stk in
        let v = code.(base + 3) in
        let d = fp + code.(base + 2) in
        s.(d) <- (if code.(base + 1) = 0 then -v else if v = 0 then 1 else 0);
        s.(d + 1) <- -1;
        pc := base + 4
    | 6 (* copy_r: dst s *) ->
        let s = !stk in
        let o = fp + code.(base + 2) and d = fp + code.(base + 1) in
        s.(d) <- s.(o);
        s.(d + 1) <- s.(o + 1);
        pc := base + 3
    | 7 (* copy_i: dst imm *) ->
        let s = !stk in
        let d = fp + code.(base + 1) in
        s.(d) <- code.(base + 2);
        s.(d + 1) <- -1;
        pc := base + 3
    | 8 (* load: dst v2 *) ->
        let s = !stk in
        let v = code.(base + 2) in
        let d = fp + code.(base + 1) in
        s.(d) <- rt.mem.(v);
        s.(d + 1) <- rt.mem.(v + 1);
        pc := base + 3
    | 9 (* store_r: v2 s *) ->
        let s = !stk in
        let o = fp + code.(base + 2) in
        let v = code.(base + 1) in
        rt.mem.(v) <- s.(o);
        rt.mem.(v + 1) <- s.(o + 1);
        pc := base + 3
    | 10 (* store_i: v2 imm *) ->
        let v = code.(base + 1) in
        rt.mem.(v) <- code.(base + 2);
        rt.mem.(v + 1) <- -1;
        pc := base + 3
    | 11 (* addr_r: dst vid off *) ->
        let s = !stk in
        let o = fp + code.(base + 3) in
        let v = s.(o) and k = s.(o + 1) in
        if k >= 0 then fail "pointer used as an integer";
        let d = fp + code.(base + 1) in
        s.(d) <- v;
        s.(d + 1) <- code.(base + 2);
        pc := base + 4
    | 12 (* addr_i: dst vid imm *) ->
        let s = !stk in
        let d = fp + code.(base + 1) in
        s.(d) <- code.(base + 3);
        s.(d + 1) <- code.(base + 2);
        pc := base + 4
    | 13 (* pload_r: dst a *) ->
        let s = !stk in
        let o = fp + code.(base + 2) in
        read_ptr rt s.(o) s.(o + 1);
        let d = fp + code.(base + 1) in
        s.(d) <- rt.vv;
        s.(d + 1) <- rt.vk;
        pc := base + 3
    | 14 (* pload_i: dst imm *) ->
        let n = code.(base + 2) in
        if n = 0 then fail "null pointer dereference"
        else fail "integer used as a pointer"
    | 15 (* pstore: ak a sk s *) ->
        let s = !stk in
        let pv, pk =
          if code.(base + 1) = 0 then begin
            let o = fp + code.(base + 2) in
            (s.(o), s.(o + 1))
          end
          else (code.(base + 2), -1)
        in
        let sv, sk =
          if code.(base + 3) = 0 then begin
            let o = fp + code.(base + 4) in
            (s.(o), s.(o + 1))
          end
          else (code.(base + 4), -1)
        in
        write_ptr rt pv pk sv sk;
        pc := base + 5
    | 16 (* call: dst fid nargs after_cost (k v)... *) ->
        let nargs = code.(base + 3) in
        rcall_fn rt
          rt.cp.Rcompile.rfuncs.(code.(base + 2))
          nargs code (base + 5) fp;
        deduct rt code.(base + 4);
        stk := rt.stk;
        let s = !stk in
        let dst = code.(base + 1) in
        if dst >= 0 then begin
          let d = fp + dst in
          if rt.rk = -2 then begin
            s.(d) <- 0;
            s.(d + 1) <- -1
          end
          else begin
            s.(d) <- rt.rv;
            s.(d + 1) <- rt.rk
          end
        end;
        pc := base + 5 + (2 * nargs)
    | 17 (* xcall: dst *) ->
        rt.extern_counter <- rt.extern_counter + 1;
        let dst = code.(base + 1) in
        if dst >= 0 then begin
          let s = !stk in
          let d = fp + dst in
          s.(d) <- rt.extern_counter * 7919 mod 104729;
          s.(d + 1) <- -1
        end;
        pc := base + 2
    | 18 (* call_unknown: strid *) ->
        fail "call to unknown function %s" rf.Rcompile.rstrs.(code.(base + 1))
    | 19 (* rphi in body *) -> fail "register phi outside the phi section"
    | 20 (* print_r: s *) ->
        let s = !stk in
        let o = fp + code.(base + 1) in
        let v = s.(o) and k = s.(o + 1) in
        if k >= 0 then fail "pointer used as an integer";
        rt.output_rev <- v :: rt.output_rev;
        pc := base + 2
    | 21 (* print_i: imm *) ->
        rt.output_rev <- code.(base + 1) :: rt.output_rev;
        pc := base + 2
    | 22 (* jmp: off blk edge cost *) ->
        rt.bcounts.(code.(base + 2)) <- rt.bcounts.(code.(base + 2)) + 1;
        rt.ecounts.(code.(base + 3)) <- rt.ecounts.(code.(base + 3)) + 1;
        deduct rt code.(base + 4);
        pc := code.(base + 1)
    | 23 (* br: cond toff tblk tedge tcost foff fblk fedge fcost *) ->
        let s = !stk in
        let o = fp + code.(base + 1) in
        let v = s.(o) and k = s.(o + 1) in
        if k >= 0 then fail "pointer used as an integer";
        let side = if v <> 0 then base + 2 else base + 6 in
        rt.bcounts.(code.(side + 1)) <- rt.bcounts.(code.(side + 1)) + 1;
        rt.ecounts.(code.(side + 2)) <- rt.ecounts.(code.(side + 2)) + 1;
        deduct rt code.(side + 3);
        pc := code.(side)
    | 24 (* ret_r: s *) ->
        let s = !stk in
        let o = fp + code.(base + 1) in
        rt.rv <- s.(o);
        rt.rk <- s.(o + 1);
        running := false
    | 25 (* ret_i: imm *) ->
        rt.rv <- code.(base + 1);
        rt.rk <- -1;
        running := false
    | 26 (* ret_void *) ->
        rt.rk <- -2;
        running := false
    | 27 (* cbr_rr: bop l r dst|-1 t-quad f-quad *) ->
        let s = !stk in
        let l = fp + ug code (base + 2) and r = fp + ug code (base + 3) in
        let lv = ug s l and lk = ug s (l + 1) in
        let rv = ug s r and rk = ug s (r + 1) in
        if lk land rk < 0 then begin
          rt.vv <- binop_int (ug code (base + 1)) lv rv;
          rt.vk <- -1
        end
        else binop_slow rt (ug code (base + 1)) lv lk rv rk;
        let z = rt.vv and zk = rt.vk in
        let dst = ug code (base + 4) in
        if dst >= 0 then begin
          let d = fp + dst in
          us s d z;
          us s (d + 1) zk
        end;
        (* second fuel stage: the terminator tick, charged after the
           binop executed and before the branch *)
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        if zk >= 0 then fail "pointer used as an integer";
        let side = if z <> 0 then base + 5 else base + 9 in
        rt.bcounts.(ug code (side + 1)) <- rt.bcounts.(ug code (side + 1)) + 1;
        rt.ecounts.(ug code (side + 2)) <- rt.ecounts.(ug code (side + 2)) + 1;
        deduct rt (ug code (side + 3));
        pc := ug code side
    | 28 (* cbr_ri: bop l imm dst|-1 t-quad f-quad *) ->
        let s = !stk in
        let l = fp + ug code (base + 2) in
        let lv = ug s l and lk = ug s (l + 1) in
        let rv = ug code (base + 3) in
        if lk < 0 then begin
          rt.vv <- binop_int (ug code (base + 1)) lv rv;
          rt.vk <- -1
        end
        else binop_slow rt (ug code (base + 1)) lv lk rv (-1);
        let z = rt.vv and zk = rt.vk in
        let dst = ug code (base + 4) in
        if dst >= 0 then begin
          let d = fp + dst in
          us s d z;
          us s (d + 1) zk
        end;
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        if zk >= 0 then fail "pointer used as an integer";
        let side = if z <> 0 then base + 5 else base + 9 in
        rt.bcounts.(ug code (side + 1)) <- rt.bcounts.(ug code (side + 1)) + 1;
        rt.ecounts.(ug code (side + 2)) <- rt.ecounts.(ug code (side + 2)) + 1;
        deduct rt (ug code (side + 3));
        pc := ug code side
    | 31 (* bin2: shape bop1 a1 b1 tslot|-1 bop2 dst c2 *) ->
        let s = !stk in
        let sh = ug code (base + 1) in
        let a1 = ug code (base + 3) in
        let av = if sh land 1 <> 0 then a1 else ug s (fp + a1) in
        let ak = if sh land 1 <> 0 then -1 else ug s (fp + a1 + 1) in
        let b1 = ug code (base + 4) in
        let bv = if sh land 2 <> 0 then b1 else ug s (fp + b1) in
        let bk = if sh land 2 <> 0 then -1 else ug s (fp + b1 + 1) in
        if ak land bk < 0 then begin
          rt.vv <- binop_int (ug code (base + 2)) av bv;
          rt.vk <- -1
        end
        else binop_slow rt (ug code (base + 2)) av ak bv bk;
        let tv = rt.vv and tkk = rt.vk in
        let tslot = ug code (base + 5) in
        if tslot >= 0 then begin
          let d = fp + tslot in
          us s d tv;
          us s (d + 1) tkk
        end;
        (* second fuel stage: the consumer's tick, charged between the
           two halves so either half traps at the oracle's point *)
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let c2 = ug code (base + 8) in
        let cv = if sh land 8 <> 0 then c2 else ug s (fp + c2) in
        let ck = if sh land 8 <> 0 then -1 else ug s (fp + c2 + 1) in
        let bop2 = ug code (base + 6) in
        let d = fp + ug code (base + 7) in
        if ck land tkk < 0 then begin
          us s d
            (if sh land 4 <> 0 then binop_int bop2 cv tv
             else binop_int bop2 tv cv);
          us s (d + 1) (-1)
        end
        else begin
          if sh land 4 <> 0 then binop_slow rt bop2 cv ck tv tkk
          else binop_slow rt bop2 tv tkk cv ck;
          us s d rt.vv;
          us s (d + 1) rt.vk
        end;
        pc := base + 9
    | 32 (* load2: d1 v2a d2 v2b — two adjacent scalar loads *) ->
        let s = !stk in
        let v = ug code (base + 2) in
        let d = fp + ug code (base + 1) in
        us s d (ug rt.mem v);
        us s (d + 1) (ug rt.mem (v + 1));
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let v2 = ug code (base + 4) in
        let d2 = fp + ug code (base + 3) in
        us s d2 (ug rt.mem v2);
        us s (d2 + 1) (ug rt.mem (v2 + 1));
        pc := base + 5
    | 33 (* bin_store: shape bop a b dst|-1 v2 *) ->
        let s = !stk in
        let sh = ug code (base + 1) in
        let a = ug code (base + 3) in
        let av = if sh land 1 <> 0 then a else ug s (fp + a) in
        let ak = if sh land 1 <> 0 then -1 else ug s (fp + a + 1) in
        let b = ug code (base + 4) in
        let bv = if sh land 2 <> 0 then b else ug s (fp + b) in
        let bk = if sh land 2 <> 0 then -1 else ug s (fp + b + 1) in
        if ak land bk < 0 then begin
          rt.vv <- binop_int (ug code (base + 2)) av bv;
          rt.vk <- -1
        end
        else binop_slow rt (ug code (base + 2)) av ak bv bk;
        let zv = rt.vv and zk = rt.vk in
        let dslot = ug code (base + 5) in
        if dslot >= 0 then begin
          let d = fp + dslot in
          us s d zv;
          us s (d + 1) zk
        end;
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let v = ug code (base + 6) in
        us rt.mem v zv;
        us rt.mem (v + 1) zk;
        pc := base + 7
    | 34 (* mm_bin: sh bop x y dst — dst <- mem/slot/imm binop.
            sh bit 1 = left operand is the second source; bit 2 =
            second source is an immediate; bit 4 = second source is a
            slot; neither 2 nor 4 = second source is a second memory
            load with its own fuel stage at [ticks.(base + 1)], and
            the binop tick moves to [ticks.(base + 2)]. *) ->
        let sh = ug code (base + 1) in
        let x = ug code (base + 3) in
        let av = ug rt.mem x and ak = ug rt.mem (x + 1) in
        let bv, bk =
          if sh land 6 = 0 then begin
            if rt.slow then begin
              rt.fuel <- rt.fuel - ticks.(base + 1);
              if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
            end;
            let y = ug code (base + 4) in
            (ug rt.mem y, ug rt.mem (y + 1))
          end
          else if sh land 2 <> 0 then (ug code (base + 4), -1)
          else begin
            let s = !stk in
            let o = fp + ug code (base + 4) in
            (ug s o, ug s (o + 1))
          end
        in
        if rt.slow then begin
          let bt = if sh land 6 = 0 then base + 2 else base + 1 in
          rt.fuel <- rt.fuel - ticks.(bt);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let lv, lk, rv, rk =
          if sh land 1 <> 0 then (bv, bk, av, ak) else (av, ak, bv, bk)
        in
        let s = !stk in
        let d = fp + ug code (base + 5) in
        if lk land rk < 0 then begin
          us s d (binop_int (ug code (base + 2)) lv rv);
          us s (d + 1) (-1)
        end
        else begin
          binop_slow rt (ug code (base + 2)) lv lk rv rk;
          us s d rt.vv;
          us s (d + 1) rt.vk
        end;
        pc := base + 6
    | 35 (* mm_bin_store: sh bop x y v2d — same operand shapes as
            [mm_bin], but the result goes straight to memory; the
            store's fuel stage follows the binop's. *) ->
        let sh = ug code (base + 1) in
        let x = ug code (base + 3) in
        let av = ug rt.mem x and ak = ug rt.mem (x + 1) in
        let bv, bk =
          if sh land 6 = 0 then begin
            if rt.slow then begin
              rt.fuel <- rt.fuel - ticks.(base + 1);
              if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
            end;
            let y = ug code (base + 4) in
            (ug rt.mem y, ug rt.mem (y + 1))
          end
          else if sh land 2 <> 0 then (ug code (base + 4), -1)
          else begin
            let s = !stk in
            let o = fp + ug code (base + 4) in
            (ug s o, ug s (o + 1))
          end
        in
        let two = sh land 6 = 0 in
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(if two then base + 2 else base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let lv, lk, rv, rk =
          if sh land 1 <> 0 then (bv, bk, av, ak) else (av, ak, bv, bk)
        in
        let zv, zk =
          if lk land rk < 0 then (binop_int (ug code (base + 2)) lv rv, -1)
          else begin
            binop_slow rt (ug code (base + 2)) lv lk rv rk;
            (rt.vv, rt.vk)
          end
        in
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(if two then base + 3 else base + 2);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let vd = ug code (base + 5) in
        us rt.mem vd zv;
        us rt.mem (vd + 1) zk;
        pc := base + 6
    | 38 (* mm_bin2: sh bop x y sh2 bop2 z dst — the mm_bin chain
            value feeds a second binop; sh2 bit 1 = chained value is
            the right operand, bit 2 = z is an immediate.  The first
            stages are mm_bin's; the second binop's tick is one past
            the first's. *) ->
        let sh = ug code (base + 1) in
        let x = ug code (base + 3) in
        let av = ug rt.mem x and ak = ug rt.mem (x + 1) in
        let bv, bk =
          if sh land 6 = 0 then begin
            if rt.slow then begin
              rt.fuel <- rt.fuel - ticks.(base + 1);
              if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
            end;
            let y = ug code (base + 4) in
            (ug rt.mem y, ug rt.mem (y + 1))
          end
          else if sh land 2 <> 0 then (ug code (base + 4), -1)
          else begin
            let s = !stk in
            let o = fp + ug code (base + 4) in
            (ug s o, ug s (o + 1))
          end
        in
        let two = sh land 6 = 0 in
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(if two then base + 2 else base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let lv, lk, rv, rk =
          if sh land 1 <> 0 then (bv, bk, av, ak) else (av, ak, bv, bk)
        in
        let tv, tk =
          if lk land rk < 0 then (binop_int (ug code (base + 2)) lv rv, -1)
          else begin
            binop_slow rt (ug code (base + 2)) lv lk rv rk;
            (rt.vv, rt.vk)
          end
        in
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(if two then base + 3 else base + 2);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let s = !stk in
        let sh2 = ug code (base + 5) in
        let z = ug code (base + 7) in
        let zv = if sh2 land 2 <> 0 then z else ug s (fp + z) in
        let zk = if sh2 land 2 <> 0 then -1 else ug s (fp + z + 1) in
        let lv2, lk2, rv2, rk2 =
          if sh2 land 1 <> 0 then (zv, zk, tv, tk) else (tv, tk, zv, zk)
        in
        let d = fp + ug code (base + 8) in
        if lk2 land rk2 < 0 then begin
          us s d (binop_int (ug code (base + 6)) lv2 rv2);
          us s (d + 1) (-1)
        end
        else begin
          binop_slow rt (ug code (base + 6)) lv2 lk2 rv2 rk2;
          us s d rt.vv;
          us s (d + 1) rt.vk
        end;
        pc := base + 9
    | 39 (* mm_bin2_store: sh bop x y sh2 bop2 z v2d — the chain's
            value goes straight to memory; the store's fuel stage
            follows the second binop's. *) ->
        let sh = ug code (base + 1) in
        let x = ug code (base + 3) in
        let av = ug rt.mem x and ak = ug rt.mem (x + 1) in
        let bv, bk =
          if sh land 6 = 0 then begin
            if rt.slow then begin
              rt.fuel <- rt.fuel - ticks.(base + 1);
              if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
            end;
            let y = ug code (base + 4) in
            (ug rt.mem y, ug rt.mem (y + 1))
          end
          else if sh land 2 <> 0 then (ug code (base + 4), -1)
          else begin
            let s = !stk in
            let o = fp + ug code (base + 4) in
            (ug s o, ug s (o + 1))
          end
        in
        let two = sh land 6 = 0 in
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(if two then base + 2 else base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let lv, lk, rv, rk =
          if sh land 1 <> 0 then (bv, bk, av, ak) else (av, ak, bv, bk)
        in
        let tv, tk =
          if lk land rk < 0 then (binop_int (ug code (base + 2)) lv rv, -1)
          else begin
            binop_slow rt (ug code (base + 2)) lv lk rv rk;
            (rt.vv, rt.vk)
          end
        in
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(if two then base + 3 else base + 2);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let s = !stk in
        let sh2 = ug code (base + 5) in
        let z = ug code (base + 7) in
        let zv = if sh2 land 2 <> 0 then z else ug s (fp + z) in
        let zk = if sh2 land 2 <> 0 then -1 else ug s (fp + z + 1) in
        let lv2, lk2, rv2, rk2 =
          if sh2 land 1 <> 0 then (zv, zk, tv, tk) else (tv, tk, zv, zk)
        in
        let wv, wk =
          if lk2 land rk2 < 0 then (binop_int (ug code (base + 6)) lv2 rv2, -1)
          else begin
            binop_slow rt (ug code (base + 6)) lv2 lk2 rv2 rk2;
            (rt.vv, rt.vk)
          end
        in
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(if two then base + 4 else base + 3);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let vd = ug code (base + 8) in
        us rt.mem vd wv;
        us rt.mem (vd + 1) wk;
        pc := base + 9
    | 40 (* abin_pstore: sh bop vid off y sk s — the full
            [addr; bin; pstore] chain: *((addr vid off) bop y) <- s.
            The sunk address is an operand immediate (value [off],
            kind [vid]); its tick rides the prologue, the binop's and
            the store's are staged.  One operand is always a pointer,
            so the binop takes the slow path directly. *) ->
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let sh = ug code (base + 1) in
        let av = ug code (base + 4) and ak = ug code (base + 3) in
        let y = ug code (base + 5) in
        let bv, bk =
          if sh land 2 <> 0 then (y, -1)
          else begin
            let s = !stk in
            let o = fp + y in
            (ug s o, ug s (o + 1))
          end
        in
        let lv, lk, rv, rk =
          if sh land 1 <> 0 then (bv, bk, av, ak) else (av, ak, bv, bk)
        in
        binop_slow rt (ug code (base + 2)) lv lk rv rk;
        let zv = rt.vv and zk = rt.vk in
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 2);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let sv, sk =
          if ug code (base + 6) = 0 then begin
            let s = !stk in
            let o = fp + ug code (base + 7) in
            (ug s o, ug s (o + 1))
          end
          else (ug code (base + 7), -1)
        in
        write_ptr rt zv zk sv sk;
        pc := base + 8
    | 41 (* copy_n: n (fl d s)×n — a run of adjacent copies under one
            dispatch.  Copies cannot trap and their slot writes are
            unobservable mid-run, so the whole run's ticks were
            batched into the prologue by the emitter. *) ->
        let s = !stk in
        let n = ug code (base + 1) in
        let p = ref (base + 2) in
        for _ = 1 to n do
          let d = fp + ug code (!p + 1) in
          let src = ug code (!p + 2) in
          if ug code !p <> 0 then begin
            us s d src;
            us s (d + 1) (-1)
          end
          else begin
            let o = fp + src in
            us s d (ug s o);
            us s (d + 1) (ug s (o + 1))
          end;
          p := !p + 3
        done;
        pc := !p
    | 42 (* bst_bin2: the bin_store payload followed by the bin2
            payload — a four-instruction statement chain in one
            dispatch.  Stage ticks: store at +1, the pair's first bin
            at +2, its second at +3, so every oracle abort point
            lands exactly where the two separate dispatches put it. *)
      ->
        let s = !stk in
        let sh = ug code (base + 1) in
        let a = ug code (base + 3) in
        let av = if sh land 1 <> 0 then a else ug s (fp + a) in
        let ak = if sh land 1 <> 0 then -1 else ug s (fp + a + 1) in
        let b = ug code (base + 4) in
        let bv = if sh land 2 <> 0 then b else ug s (fp + b) in
        let bk = if sh land 2 <> 0 then -1 else ug s (fp + b + 1) in
        if ak land bk < 0 then begin
          rt.vv <- binop_int (ug code (base + 2)) av bv;
          rt.vk <- -1
        end
        else binop_slow rt (ug code (base + 2)) av ak bv bk;
        let zv = rt.vv and zk = rt.vk in
        let dslot = ug code (base + 5) in
        if dslot >= 0 then begin
          let d = fp + dslot in
          us s d zv;
          us s (d + 1) zk
        end;
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 1);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let v = ug code (base + 6) in
        us rt.mem v zv;
        us rt.mem (v + 1) zk;
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 2);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let sh2 = ug code (base + 7) in
        let a1 = ug code (base + 9) in
        let av1 = if sh2 land 1 <> 0 then a1 else ug s (fp + a1) in
        let ak1 = if sh2 land 1 <> 0 then -1 else ug s (fp + a1 + 1) in
        let b1 = ug code (base + 10) in
        let bv1 = if sh2 land 2 <> 0 then b1 else ug s (fp + b1) in
        let bk1 = if sh2 land 2 <> 0 then -1 else ug s (fp + b1 + 1) in
        if ak1 land bk1 < 0 then begin
          rt.vv <- binop_int (ug code (base + 8)) av1 bv1;
          rt.vk <- -1
        end
        else binop_slow rt (ug code (base + 8)) av1 ak1 bv1 bk1;
        let tv = rt.vv and tkk = rt.vk in
        let tslot = ug code (base + 11) in
        if tslot >= 0 then begin
          let d = fp + tslot in
          us s d tv;
          us s (d + 1) tkk
        end;
        if rt.slow then begin
          rt.fuel <- rt.fuel - ticks.(base + 3);
          if rt.fuel <= 0 then raise (Interp.Out_of_fuel rt.budget)
        end;
        let c2 = ug code (base + 14) in
        let cv = if sh2 land 8 <> 0 then c2 else ug s (fp + c2) in
        let ck = if sh2 land 8 <> 0 then -1 else ug s (fp + c2 + 1) in
        let bop2 = ug code (base + 12) in
        let d = fp + ug code (base + 13) in
        if ck land tkk < 0 then begin
          us s d
            (if sh2 land 4 <> 0 then binop_int bop2 cv tv
             else binop_int bop2 tv cv);
          us s (d + 1) (-1)
        end
        else begin
          if sh2 land 4 <> 0 then binop_slow rt bop2 cv ck tv tkk
          else binop_slow rt bop2 tv tkk cv ck;
          us s d rt.vv;
          us s (d + 1) rt.vk
        end;
        pc := base + 15
    | _ -> assert false
  done

and rcall_fn (rt : rt) (rf : Rcompile.rfunc) (argc : int)
    (arg_code : int array) (arg_off : int) (caller_fp : int) =
  if rt.depth > 500 then fail "call stack exhausted (depth 500)";
  rt.depth <- rt.depth + 1;
  rt.ccounts.(rf.Rcompile.rfid) <- rt.ccounts.(rf.Rcompile.rfid) + 1;
  let cbase = rt.sp in
  let need = cbase + rf.Rcompile.frame_words in
  if need > Array.length rt.stk then begin
    let a = Array.make (max need (2 * Array.length rt.stk)) 0 in
    Array.blit rt.stk 0 a 0 cbase;
    rt.stk <- a
  end;
  rt.sp <- need;
  let stk = rt.stk in
  (* fresh cells for this activation's address-taken locals *)
  let nl = Array.length rf.Rcompile.rlocals in
  let save = cbase + (2 * rf.Rcompile.rnslots) in
  for i = 0 to nl - 1 do
    let v = 2 * rf.Rcompile.rlocals.(i) in
    stk.(save + (2 * i)) <- rt.mem.(v);
    stk.(save + (2 * i) + 1) <- rt.mem.(v + 1);
    rt.mem.(v) <- 0;
    rt.mem.(v + 1) <- -1
  done;
  if Array.length rf.Rcompile.rparams <> argc then
    fail "arity mismatch calling %s" rf.Rcompile.rname;
  for i = 0 to argc - 1 do
    let p = rf.Rcompile.rparams.(i) in
    if p >= 0 then begin
      let d = cbase + p in
      if arg_code.(arg_off + (2 * i)) = 0 then begin
        let o = caller_fp + arg_code.(arg_off + (2 * i) + 1) in
        stk.(d) <- stk.(o);
        stk.(d + 1) <- stk.(o + 1)
      end
      else begin
        stk.(d) <- arg_code.(arg_off + (2 * i) + 1);
        stk.(d + 1) <- -1
      end
    end
  done;
  rt.bcounts.(rf.Rcompile.entry_block) <- rt.bcounts.(rf.Rcompile.entry_block) + 1;
  deduct rt rf.Rcompile.entry_cost;
  exec rt rf cbase;
  (* restore the locals; the stack may have been replaced inside *)
  let stk = rt.stk in
  for i = 0 to nl - 1 do
    let v = 2 * rf.Rcompile.rlocals.(i) in
    rt.mem.(v) <- stk.(save + (2 * i));
    rt.mem.(v + 1) <- stk.(save + (2 * i) + 1)
  done;
  rt.sp <- cbase;
  rt.depth <- rt.depth - 1

(* ------------------------------------------------------------------ *)

(* Run the compiled program from [main], producing a result
   indistinguishable from [Interp.run] on the same IR. *)
let run ?(fuel = 50_000_000) (cp : Rcompile.t) : Interp.result =
  if cp.Rcompile.rmain < 0 then fail "program has no main function";
  let nvars = cp.Rcompile.rnvars in
  let rt =
    {
      cp;
      mem = Array.sub cp.Rcompile.rmem_init 0 (max (2 * nvars) 1);
      amem =
        Array.init nvars (fun v ->
            let len = cp.Rcompile.rarray_len.(v) in
            if len >= 0 then begin
              let a = Array.make (max (2 * len) 1) 0 in
              for i = 0 to len - 1 do
                a.((2 * i) + 1) <- -1
              done;
              a
            end
            else [||]);
      stk = Array.make 1024 0;
      sp = 0;
      fuel;
      budget = fuel;
      slow = false;
      bcounts = Array.make (max cp.Rcompile.rtotal_blocks 1) 0;
      ecounts = Array.make (max cp.Rcompile.rtotal_edges 1) 0;
      ccounts = Array.make (max (Array.length cp.Rcompile.rfuncs) 1) 0;
      output_rev = [];
      depth = 0;
      extern_counter = 0;
      vv = 0;
      vk = -1;
      rk = -2;
      rv = 0;
    }
  in
  rcall_fn rt cp.Rcompile.rfuncs.(cp.Rcompile.rmain) 0 [||] 0 0;
  let exit_value =
    if rt.rk = -2 then 0
    else if rt.rk >= 0 then fail "pointer used as an integer"
    else rt.rv
  in
  (* reconstruct the dynamic counters from block execution counts and
     rebuild the oracle-shaped tuple-keyed tables.  Logical edges are
     interned at compile time (a Br's two sides to one target share a
     dense id), so each table entry is a single direct write from its
     dense counter — no lookup-and-accumulate on the result path.  The
     sink slots (block span end, edge span slot 0) fall outside the
     loops. *)
  let counters =
    {
      Interp.loads = 0;
      stores = 0;
      aliased_loads = 0;
      aliased_stores = 0;
      instrs = 0;
    }
  in
  let block_counts = Hashtbl.create 64 in
  let edge_counts = Hashtbl.create 64 in
  let call_counts = Hashtbl.create 8 in
  Array.iter
    (fun (rf : Rcompile.rfunc) ->
      for bid = 0 to rf.Rcompile.rnblocks - 1 do
        let c = rt.bcounts.(rf.Rcompile.block_base + bid) in
        if c > 0 then begin
          Hashtbl.replace block_counts (rf.Rcompile.rname, bid) c;
          counters.Interp.instrs <-
            counters.Interp.instrs + (c * rf.Rcompile.s_instrs.(bid));
          counters.Interp.loads <-
            counters.Interp.loads + (c * rf.Rcompile.s_loads.(bid));
          counters.Interp.stores <-
            counters.Interp.stores + (c * rf.Rcompile.s_stores.(bid));
          counters.Interp.aliased_loads <-
            counters.Interp.aliased_loads + (c * rf.Rcompile.s_aloads.(bid));
          counters.Interp.aliased_stores <-
            counters.Interp.aliased_stores + (c * rf.Rcompile.s_astores.(bid))
        end
      done;
      for e = 0 to rf.Rcompile.rnedges - 1 do
        let c = rt.ecounts.(rf.Rcompile.edge_base + 1 + e) in
        if c > 0 then
          Hashtbl.replace edge_counts
            ( rf.Rcompile.rname,
              rf.Rcompile.edge_src.(e),
              rf.Rcompile.edge_dst.(e) )
            c
      done;
      let c = rt.ccounts.(rf.Rcompile.rfid) in
      if c > 0 then Hashtbl.replace call_counts rf.Rcompile.rname c)
    cp.Rcompile.rfuncs;
  {
    Interp.exit_value;
    output = List.rev rt.output_rev;
    counters;
    block_counts;
    edge_counts;
    call_counts;
  }
