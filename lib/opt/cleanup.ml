(* The standard clean-up bundle: copy propagation, then DCE, once.

   One round reaches the fixed point on valid SSA.  Copy propagation
   resolves whole copy chains, so after it no use names a copy's target
   that a second run would rewrite; DCE is a complete mark-and-sweep
   from the effectful roots, so a second sweep finds everything live,
   and removing dead code creates no new copy.  The [cleanup] property
   suite checks that both passes report nothing left to do after
   [run]. *)

open Rp_ir

let run (f : Func.t) : unit =
  ignore (Copyprop.run f);
  ignore (Dce.run f)

let run_prog (p : Func.prog) : unit = List.iter run p.Func.funcs
