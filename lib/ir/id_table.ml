(* Int-valued tables keyed by ids: a plain array over the ids a
   function's counters have handed out, a hash table for any other key,
   so a checker still handles hand-built IR whose ids run past the
   counters. *)

type t = {
  dense : int array;
  sparse : (int, int) Hashtbl.t;
  default : int;
}

let create n ~default =
  { dense = Array.make (max n 0) default; sparse = Hashtbl.create 8; default }

let get t i =
  if i >= 0 && i < Array.length t.dense then t.dense.(i)
  else match Hashtbl.find_opt t.sparse i with Some v -> v | None -> t.default

let set t i v =
  if i >= 0 && i < Array.length t.dense then t.dense.(i) <- v
  else Hashtbl.replace t.sparse i v

(* Any-valued tables over ids.  The array grows to cover every
   non-negative key that is set, so ids handed out after the table was
   made (fresh registers, fresh phis) stay in the array too. *)
module Poly = struct
  type 'a t = {
    mutable dense : 'a array;
    sparse : (int, 'a) Hashtbl.t;
    default : 'a;
  }

  let create n ~default =
    { dense = Array.make (max n 0) default; sparse = Hashtbl.create 8; default }

  let get t i =
    if i >= 0 then if i < Array.length t.dense then t.dense.(i) else t.default
    else match Hashtbl.find_opt t.sparse i with Some v -> v | None -> t.default

  let set t i v =
    if i >= 0 then begin
      let n = Array.length t.dense in
      if i >= n then begin
        let grown = Array.make (max (i + 1) (2 * n)) t.default in
        Array.blit t.dense 0 grown 0 n;
        t.dense <- grown
      end;
      t.dense.(i) <- v
    end
    else Hashtbl.replace t.sparse i v
end
