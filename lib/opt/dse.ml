(* Dead store elimination on memory SSA form — cited by the paper
   ([CFR+91]) as another optimization that falls out of having memory
   resources under SSA.

   A store whose resource has no uses is unobservable, because in this
   IR every observation of memory is an explicit use: singleton loads,
   aliased loads (calls, pointer loads), and the [Exit_use] at each
   return which stands for the caller's view of the globals.  Removing
   a dead store can make a memory phi dead, which can make further
   stores dead, so the sweep cascades (the same argument as step 4 of
   the incremental SSA updater, applied to every variable at once). *)

open Rp_ir
open Rp_ssa

(* The index is built once: a removed store or phi drops out of it, and
   nothing here inserts.  Each round finds, per variable, the versions
   some instruction uses, then removes that variable's definitions of
   every other version. *)
let run (f : Func.t) : int =
  let index = Occ_index.build f in
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        let used = Hashtbl.create 16 in
        let use (r : Resource.t) = Hashtbl.replace used r.ver () in
        Occ_index.iter index v (fun _ (i : Instr.t) ~defs:_ ~uses ->
            List.iter use uses;
            List.iter
              (fun (_, (r : Resource.t)) -> if r.base = v then use r)
              (Instr.mphi_srcs i.op));
        Occ_index.iter index v (fun bid (i : Instr.t) ~defs:_ ~uses:_ ->
            match i.op with
            | (Instr.Store { dst; _ } | Instr.Mphi { dst; _ })
              when dst.base = v && not (Hashtbl.mem used dst.ver) ->
                Block.remove_instr (Func.block f bid) ~iid:i.iid;
                incr removed;
                changed := true
            | _ -> ()))
      (Occ_index.vars index)
  done;
  !removed

let run_prog (p : Func.prog) : int =
  List.fold_left (fun acc f -> acc + run f) 0 p.Func.funcs
