(* Register interference graph.

   Built from liveness: two registers interfere when one is defined at
   a point where the other is live (the classic Chaitin condition).
   Copies get the usual slack: the source of a copy does not interfere
   with its target just because of the copy itself.

   The graph is a packed bitset matrix: row [r] holds one bit per
   potential neighbour, so edge insertion and membership are O(1) and
   iterating a row costs [nregs/63] words plus one count-trailing-zeros
   per neighbour.  Register counts per function are small (hundreds),
   so the n^2-bit matrix is a few KB and the whole build is dominated
   by the liveness walk — the list-of-sets representation this
   replaces spent more time allocating than computing.

   On strict SSA form the slack-free graph is chordal and its
   chromatic number is MAXLIVE, so neither Table 3's color count
   ({!Color.analyse}, from {!Rp_analysis.Pressure}) nor the backend's
   frame slots ({!Slots}, a greedy walk in dominance order) build this
   graph; it serves the spill estimates and the tests' coloring and
   slot oracles. *)

open Rp_ir
open Rp_analysis

(* 63 usable bits per OCaml int *)
let bits = 63

type t = {
  nregs : int;
  words : int;  (** words per row *)
  m : int array;  (** row-major adjacency bitmap, [nregs * words] *)
}

let create (nregs : int) : t =
  let words = (max nregs 1 + bits - 1) / bits in
  { nregs; words; m = Array.make (max nregs 1 * words) 0 }

let add_edge t a b =
  if a <> b then begin
    t.m.((a * t.words) + (b / bits)) <-
      t.m.((a * t.words) + (b / bits)) lor (1 lsl (b mod bits));
    t.m.((b * t.words) + (a / bits)) <-
      t.m.((b * t.words) + (a / bits)) lor (1 lsl (a mod bits))
  end

let interfere t a b =
  a <> b
  && a < t.nregs && b < t.nregs
  && t.m.((a * t.words) + (b / bits)) land (1 lsl (b mod bits)) <> 0

(* trailing zeros of a non-zero word *)
let ntz v =
  let n = ref 0 and v = ref v in
  if !v land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    v := !v lsr 32
  end;
  if !v land 0xFFFF = 0 then begin
    n := !n + 16;
    v := !v lsr 16
  end;
  if !v land 0xFF = 0 then begin
    n := !n + 8;
    v := !v lsr 8
  end;
  if !v land 0xF = 0 then begin
    n := !n + 4;
    v := !v lsr 4
  end;
  if !v land 0x3 = 0 then begin
    n := !n + 2;
    v := !v lsr 2
  end;
  if !v land 0x1 = 0 then incr n;
  !n

(* Iterate the neighbours of [r] in increasing order. *)
let iter_adj t r f =
  let base = r * t.words in
  for wi = 0 to t.words - 1 do
    let x = ref t.m.(base + wi) in
    let b0 = wi * bits in
    while !x <> 0 do
      let low = !x land - !x in
      f (b0 + ntz low);
      x := !x lxor low
    done
  done

let num_nodes t = t.nregs

(* Registers that actually occur in the function (not every id below
   next_reg is in use after renaming). *)
let occurring (f : Func.t) : Ids.IntSet.t =
  let s = ref Ids.IntSet.empty in
  let touch r = s := Ids.IntSet.add r !s in
  List.iter touch f.Func.params;
  Func.iter_blocks
    (fun b ->
      Block.iter_instrs
        (fun i ->
          (match Instr.reg_def i.op with Some r -> touch r | None -> ());
          List.iter touch (Instr.reg_uses i.op);
          List.iter (fun (_, r) -> touch r) (Instr.rphi_srcs i.op))
        b;
      List.iter touch (Block.term_uses b))
    f;
  !s

let build ?(copy_slack = true) (f : Func.t) : t =
  let live = Liveness.compute f in
  let n = f.Func.next_reg in
  let t = create n in
  let add_edge a b = add_edge t a b in
  Func.iter_blocks
    (fun b ->
      (* walk the block backwards keeping the live set; registers read
         by the terminator are live between the last instruction and
         the branch *)
      let live_now = Bitset.copy (Liveness.live_out live b.bid) in
      List.iter (Bitset.add live_now) (Block.term_uses b);
      let step (i : Instr.t) =
        (match Instr.reg_def i.op with
        | Some d ->
            (* copy slack: the source of a copy does not interfere with
               its target just because of the copy; hide it while
               drawing the edges.  Disabled for the slack-free chordal
               graph whose chromatic number is exactly MAXLIVE. *)
            let hidden =
              match i.op with
              | Instr.Copy { src = Instr.Reg s; _ }
                when copy_slack && Bitset.mem live_now s ->
                  Bitset.remove live_now s;
                  Some s
              | _ -> None
            in
            Bitset.iter (fun l -> add_edge d l) live_now;
            (match hidden with Some s -> Bitset.add live_now s | None -> ());
            Bitset.remove live_now d
        | None -> ());
        List.iter (Bitset.add live_now) (Instr.reg_uses i.op)
      in
      Iseq.iter_rev step b.body;
      (* phi defs: all defined in parallel at block entry; they
         interfere with each other and with everything live there *)
      let phi_ds =
        Iseq.fold_left
          (fun acc (i : Instr.t) ->
            match Instr.reg_def i.op with Some d -> d :: acc | None -> acc)
          [] b.phis
      in
      List.iter
        (fun d ->
          Bitset.iter (fun l -> add_edge d l) live_now;
          List.iter (fun d' -> add_edge d d') phi_ds)
        phi_ds)
    f;
  (* parameters: all defined in parallel at function entry, before the
     entry block runs — each interferes with everything live into the
     entry block (which includes every other live param) *)
  let entry_live = Liveness.live_in live f.Func.entry in
  List.iter
    (fun p -> Bitset.iter (fun l -> add_edge p l) entry_live)
    f.Func.params;
  t
