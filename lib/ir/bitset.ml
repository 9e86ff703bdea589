(* Packed bitsets over small dense integer ids (block ids, SSA
   location ids).

   The dataflow kernels (liveness, dominance frontiers, DJ-graph IDF)
   run fixpoint loops whose inner operation is "union this set into
   that one, did anything change?".  On [Ids.IntSet] that is O(n log n)
   allocation-heavy tree surgery per visit; here it is a word-wise
   or/and-not over int arrays, in place, with the change bit computed
   for free.

   Sets grow automatically: [add]/[union_into] widen the word array as
   needed, so callers never have to know the universe size up front
   (SSA location ids in particular have no cheap bound at entry).
   Trailing zero words are insignificant — [equal] and [is_empty]
   ignore them. *)

type t = { mutable words : int array }

let bits = Sys.int_size

let create n =
  let nw = max 1 ((max n 1 + bits - 1) / bits) in
  { words = Array.make nw 0 }

let empty () = create 1

let copy t = { words = Array.copy t.words }

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let ensure t nw =
  let cur = Array.length t.words in
  if nw > cur then begin
    let w = Array.make (max nw (2 * cur)) 0 in
    Array.blit t.words 0 w 0 cur;
    t.words <- w
  end

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative element";
  let w = i / bits in
  ensure t (w + 1);
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits))

let remove t i =
  if i >= 0 then begin
    let w = i / bits in
    if w < Array.length t.words then
      t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits))
  end

let mem t i =
  i >= 0
  &&
  let w = i / bits in
  w < Array.length t.words && t.words.(w) land (1 lsl (i mod bits)) <> 0

(* [union_into ~into src] is into := into ∪ src; true when [into]
   changed. *)
let union_into ~(into : t) (src : t) : bool =
  ensure into (Array.length src.words);
  let changed = ref false in
  for w = 0 to Array.length src.words - 1 do
    let old = into.words.(w) in
    let nw = old lor src.words.(w) in
    if nw <> old then begin
      into.words.(w) <- nw;
      changed := true
    end
  done;
  !changed

(* [diff_into ~into src] is into := into \ src; true when [into]
   changed. *)
let diff_into ~(into : t) (src : t) : bool =
  let n = min (Array.length into.words) (Array.length src.words) in
  let changed = ref false in
  for w = 0 to n - 1 do
    let old = into.words.(w) in
    let nw = old land lnot src.words.(w) in
    if nw <> old then begin
      into.words.(w) <- nw;
      changed := true
    end
  done;
  !changed

let disjoint a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let rec go w = w >= n || (a.words.(w) land b.words.(w) = 0 && go (w + 1)) in
  go 0

let is_empty t =
  let rec go w = w >= Array.length t.words || (t.words.(w) = 0 && go (w + 1)) in
  go 0

let equal a b =
  let na = Array.length a.words and nb = Array.length b.words in
  let n = max na nb in
  let word (t : t) w = if w < Array.length t.words then t.words.(w) else 0 in
  let rec go w = w >= n || (word a w = word b w && go (w + 1)) in
  go 0

let cardinal t =
  let count_word w =
    let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
    go w 0
  in
  Array.fold_left (fun acc w -> acc + count_word w) 0 t.words

(* Fold over members in increasing order. *)
let fold f t acc =
  let acc = ref acc in
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    while !word <> 0 do
      (* lowest set bit *)
      let b = !word land - !word in
      let rec log2 b i = if b = 1 then i else log2 (b lsr 1) (i + 1) in
      acc := f ((w * bits) + log2 b 0) !acc;
      word := !word land lnot b
    done
  done;
  !acc

let iter f t = fold (fun i () -> f i) t ()

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list l =
  let t = empty () in
  List.iter (add t) l;
  t

let to_intset t = fold (fun i s -> Ids.IntSet.add i s) t Ids.IntSet.empty

let of_intset s =
  let t = empty () in
  Ids.IntSet.iter (add t) s;
  t
