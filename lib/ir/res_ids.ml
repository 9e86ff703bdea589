(* Dense ids for one function's memory resources.

   SSA versions of a variable are handed out densely from [Func.mver]
   (1, 2, ...; version 0 is the unrenamed name), so the resources of a
   function can be numbered [(base, ver) -> off.(base) + ver], with
   variables laid out in increasing [vid] order.  Hot passes then keep
   per-resource facts in plain arrays instead of hash tables keyed by
   the polymorphic resource record.

   A numbering is a snapshot: a version created by [Func.fresh_ver]
   after it was built lies past its variable's recorded top, and [id]
   reports it as a miss instead of handing out the id of the next
   variable's first version. *)

type t = {
  off : int array;  (** first id of each variable; -1 if it has none *)
  top : int array;  (** highest version numbered, per variable *)
  vids : int array;  (** the numbered variables, increasing *)
  size : int;
}

let of_func (f : Func.t) : t =
  let nvars = Hashtbl.fold (fun vid _ acc -> max acc (vid + 1)) f.Func.mver 0 in
  let off = Array.make nvars (-1) and top = Array.make nvars (-1) in
  let next = ref 0 and vids = ref [] in
  for vid = 0 to nvars - 1 do
    match Hashtbl.find_opt f.Func.mver vid with
    | Some v ->
        off.(vid) <- !next;
        top.(vid) <- v;
        next := !next + v + 1;
        vids := vid :: !vids
    | None -> ()
  done;
  { off; top; vids = Array.of_list (List.rev !vids); size = !next }

let size t = t.size

let miss = -1

let id t (r : Resource.t) =
  let b = r.Resource.base in
  if b < 0 || b >= Array.length t.off then miss
  else
    let o = t.off.(b) in
    if o < 0 || r.Resource.ver < 0 || r.Resource.ver > t.top.(b) then miss
    else o + r.Resource.ver

(* The numbered variable owning id [i]: the last one whose first id is
   at most [i] (offsets increase with the vid). *)
let resource t i =
  if i < 0 || i >= t.size then invalid_arg "Res_ids.resource";
  let lo = ref 0 and hi = ref (Array.length t.vids - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.off.(t.vids.(mid)) <= i then lo := mid else hi := mid - 1
  done;
  let base = t.vids.(!lo) in
  { Resource.base; ver = i - t.off.(base) }
