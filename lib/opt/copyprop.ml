(* Copy propagation on SSA form.

   The promoter replaces loads by copies from the promoted register
   ("These copy instructions are eliminated later" — paper 4.4); this
   pass is the "later".  Every use of the target of [t = copy s] is
   rewritten to [s], chasing chains, including phi sources and
   terminator operands.  The now-dead copies are swept by {!Dce}. *)

open Rp_ir

let run (f : Func.t) : int =
  (* copy map: reg -> operand it copies *)
  let copy_of = Id_table.Poly.create f.Func.next_reg ~default:None in
  let copies = ref 0 in
  Func.iter_blocks
    (fun b ->
      Block.iter_instrs
        (fun i ->
          match i.op with
          | Instr.Copy { dst; src } ->
              Id_table.Poly.set copy_of dst (Some src);
              incr copies
          | _ -> ())
        b)
    f;
  if !copies = 0 then 0
  else begin
    (* resolve chains; cycles are impossible in valid SSA, but guard
       against broken input with a depth bound *)
    let rec resolve depth (o : Instr.operand) : Instr.operand =
      match o with
      | Instr.Imm _ -> o
      | Instr.Reg r -> (
          if depth > 1000 then o
          else
            match Id_table.Poly.get copy_of r with
            | Some o' -> resolve (depth + 1) o'
            | None -> o)
    in
    let rewrites = ref 0 in
    (* an unchanged name comes back as the same value, so an
       instruction with nothing to rewrite keeps its opcode *)
    let subst_reg ((p, r) as src) =
      match resolve 0 (Instr.Reg r) with
      | Instr.Reg r' when r' <> r ->
          incr rewrites;
          (p, r')
      | Instr.Reg _ | Instr.Imm _ -> src (* immediates only fit operands *)
    in
    let subst o =
      let o' = resolve 0 o in
      if o' <> o then begin
        incr rewrites;
        o'
      end
      else o
    in
    Func.iter_blocks
      (fun b ->
        Block.iter_instrs
          (fun i ->
            match i.op with
            | Instr.Bin x ->
                let l = subst x.l in
                let r = subst x.r in
                if l != x.l || r != x.r then i.op <- Instr.Bin { x with l; r }
            | Instr.Un x ->
                let src = subst x.src in
                if src != x.src then i.op <- Instr.Un { x with src }
            | Instr.Copy x ->
                let src = subst x.src in
                if src != x.src then i.op <- Instr.Copy { x with src }
            | Instr.Store x ->
                let src = subst x.src in
                if src != x.src then i.op <- Instr.Store { x with src }
            | Instr.Addr_of x ->
                let off = subst x.off in
                if off != x.off then i.op <- Instr.Addr_of { x with off }
            | Instr.Ptr_load x ->
                let addr = subst x.addr in
                if addr != x.addr then i.op <- Instr.Ptr_load { x with addr }
            | Instr.Ptr_store x ->
                let addr = subst x.addr in
                let src = subst x.src in
                if addr != x.addr || src != x.src then
                  i.op <- Instr.Ptr_store { x with addr; src }
            | Instr.Call x ->
                let args = Instr.map_shared subst x.args in
                if args != x.args then i.op <- Instr.Call { x with args }
            | Instr.Print x ->
                let src = subst x.src in
                if src != x.src then i.op <- Instr.Print { src }
            | Instr.Rphi x ->
                let srcs = Instr.map_shared subst_reg x.srcs in
                if srcs != x.srcs then i.op <- Instr.Rphi { x with srcs }
            | Instr.Load _ | Instr.Mphi _ | Instr.Dummy_aload _
            | Instr.Exit_use _ ->
                ())
          b;
        match b.term with
        | Block.Br { cond; t; f = fl } ->
            let cond' = subst cond in
            if cond' != cond then b.term <- Block.Br { cond = cond'; t; f = fl }
        | Block.Ret (Some o) ->
            let o' = subst o in
            if o' != o then b.term <- Block.Ret (Some o')
        | Block.Jmp _ | Block.Ret None -> ())
      f;
    !rewrites
  end
