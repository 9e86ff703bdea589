(* Union-find with path compression and union by rank, keyed by an
   arbitrary hashable type.  The paper's SSA-web construction (Figure 3)
   is a direct UNION/FIND computation over memory resource names; this
   is the reference the suites check [Webs]' int-array version
   against. *)

type 'a t = {
  parent : ('a, 'a) Hashtbl.t;
  rank : ('a, int) Hashtbl.t;
}

let create () = { parent = Hashtbl.create 16; rank = Hashtbl.create 16 }

(* Ensure [x] is known to the structure. *)
let add t x = if not (Hashtbl.mem t.parent x) then Hashtbl.replace t.parent x x

let rec find t x =
  add t x;
  let p = Hashtbl.find t.parent x in
  if p = x then x
  else begin
    let root = find t p in
    Hashtbl.replace t.parent x root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    let ka = match Hashtbl.find_opt t.rank ra with Some k -> k | None -> 0 in
    let kb = match Hashtbl.find_opt t.rank rb with Some k -> k | None -> 0 in
    if ka < kb then Hashtbl.replace t.parent ra rb
    else if kb < ka then Hashtbl.replace t.parent rb ra
    else begin
      Hashtbl.replace t.parent rb ra;
      Hashtbl.replace t.rank ra (ka + 1)
    end
  end

let same t a b = find t a = find t b

(* All equivalence classes as lists of members. *)
let classes t : 'a list list =
  let by_root = Hashtbl.create 16 in
  Hashtbl.iter
    (fun x _ ->
      let r = find t x in
      let cur =
        match Hashtbl.find_opt by_root r with Some l -> l | None -> []
      in
      Hashtbl.replace by_root r (x :: cur))
    t.parent;
  Hashtbl.fold (fun _ members acc -> members :: acc) by_root []
