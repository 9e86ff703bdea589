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
