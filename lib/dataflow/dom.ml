open Capri_ir

(* [idom.(b)] is block [b]'s immediate dominator, in the numbers of
   [cfg]; the entry (block 0) is its own, and an unreachable block has
   none (-1). *)
type t = { cfg : Cfg.t; idom : int array }

(* Iterative dominators over reverse-postorder positions (Cooper, Harvey
   and Kennedy): a block's immediate dominator is the nearest common
   ancestor, in the dominator tree built so far, of its processed
   predecessors. Only reachable blocks take part, so an unreachable
   predecessor cannot weaken a reachable block's dominators. The fixpoint
   is the unique one, whatever the visit order; reverse postorder makes
   it converge in a couple of passes. *)
let compute cfg =
  let rpo = Cfg.rpo cfg in
  let n = Array.length rpo in
  let position = Array.make (Cfg.size cfg) (-1) in
  Array.iteri (fun i b -> position.(b) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if a > b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  (* The processed predecessors' common ancestor, -1 while there is
     none. *)
  let rec meet acc = function
    | [] -> acc
    | b :: rest ->
      let p = position.(b) in
      meet
        (if p < 0 || idom.(p) < 0 then acc
         else if acc < 0 then p
         else intersect p acc)
        rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let next = meet (-1) (Cfg.preds cfg rpo.(i)) in
      if next <> idom.(i) then begin
        idom.(i) <- next;
        changed := true
      end
    done
  done;
  let by_block = Array.make (Cfg.size cfg) (-1) in
  Array.iteri (fun i b -> by_block.(b) <- rpo.(idom.(i))) rpo;
  { cfg; idom = by_block }

(* Up the dominator tree from [b]: [a] dominates [b] iff it is on the
   way to the entry, or is [b] itself. *)
let dominates_index t a b =
  let rec up x = x = a || (x > 0 && up t.idom.(x)) in
  a = b || (t.idom.(b) >= 0 && up b)

let dominates t a b =
  dominates_index t (Cfg.index t.cfg a) (Cfg.index t.cfg b)

let idom t l =
  let b = Cfg.index t.cfg l in
  if b = 0 || t.idom.(b) < 0 then None else Some (Cfg.label t.cfg t.idom.(b))

let dominators t l =
  let rec up b acc =
    let acc = Label.Set.add (Cfg.label t.cfg b) acc in
    if b = 0 || t.idom.(b) < 0 then acc else up t.idom.(b) acc
  in
  up (Cfg.index t.cfg l) Label.Set.empty
