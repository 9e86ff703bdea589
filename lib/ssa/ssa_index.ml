(* Use index over memory resources of a function in SSA form.

   Promotion and dead-store elimination ask "who uses this resource?".
   The index is rebuilt by a single scan whenever the code has been
   transformed; at our scales a rescan is cheaper than keeping the index
   incrementally consistent through every surgical edit. *)

open Rp_ir

type use_site =
  | Use_at of { bid : Ids.bid; instr : Instr.t }
      (** ordinary use by an instruction in [bid] *)
  | Use_phi_src of { phi_bid : Ids.bid; pred : Ids.bid; instr : Instr.t }
      (** source of a memory phi in [phi_bid], flowing in from [pred];
          for dominance purposes this use happens at the end of [pred] *)

type t = { uses : use_site list Resource.ResMap.t }

let build_filtered (keep : Resource.t -> bool) (f : Func.t) : t =
  let uses = ref Resource.ResMap.empty in
  let add_use r u =
    let cur =
      match Resource.ResMap.find_opt r !uses with Some l -> l | None -> []
    in
    uses := Resource.ResMap.add r (u :: cur) !uses
  in
  Func.iter_blocks
    (fun b ->
      Block.iter_instrs
        (fun i ->
          List.iter
            (fun r -> if keep r then add_use r (Use_at { bid = b.bid; instr = i }))
            (Instr.mem_uses i.op);
          List.iter
            (fun (pred, r) ->
              if keep r then
                add_use r (Use_phi_src { phi_bid = b.bid; pred; instr = i }))
            (Instr.mphi_srcs i.op))
        b)
    f;
  { uses = !uses }

let build (f : Func.t) : t = build_filtered (fun _ -> true) f

(* Promotion only ever queries resources of one variable; indexing just
   that base skips nearly every map operation of the full build. *)
let build_for_base (f : Func.t) ~(base : Ids.vid) : t =
  build_filtered (fun (r : Resource.t) -> r.Resource.base = base) f

let uses_of t r =
  match Resource.ResMap.find_opt r t.uses with Some l -> l | None -> []

let has_uses t r = uses_of t r <> []

(* The block a use occurs in, for dominance checks: a phi-source use
   belongs to the end of the predecessor it flows from. *)
let use_block = function
  | Use_at { bid; _ } -> bid
  | Use_phi_src { pred; _ } -> pred
