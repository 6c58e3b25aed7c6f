open Capri_ir

type t = { doms : Label.Set.t Label.Map.t; idoms : Label.t Label.Map.t }

(* Blocks reachable from the entry, in reverse postorder. *)
let reverse_postorder f =
  let seen = Label.Tbl.create 64 in
  let order = ref [] in
  let rec visit l =
    if not (Label.Tbl.mem seen l) then begin
      Label.Tbl.add seen l ();
      List.iter visit (Instr.term_succs (Func.find f l).Block.term);
      order := l :: !order
    end
  in
  visit (Func.entry f);
  Array.of_list !order

(* Iterative dominators over reverse-postorder numbers (Cooper, Harvey
   and Kennedy): a block's immediate dominator is the nearest common
   ancestor, in the dominator tree built so far, of its processed
   predecessors. Only reachable blocks take part, so an unreachable
   predecessor cannot weaken a reachable block's dominators. The fixpoint
   is the unique one, whatever the visit order; reverse postorder makes
   it converge in a couple of passes. *)
let compute f =
  let rpo = reverse_postorder f in
  let n = Array.length rpo in
  let number = Label.Tbl.create n in
  Array.iteri (fun i l -> Label.Tbl.replace number l i) rpo;
  let preds = Array.make n [] in
  Array.iteri
    (fun i l ->
      List.iter
        (fun s ->
          let j = Label.Tbl.find number s in
          preds.(j) <- i :: preds.(j))
        (Instr.term_succs (Func.find f l).Block.term))
    rpo;
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if a > b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let next =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc
            else if acc < 0 then p
            else intersect p acc)
          (-1) preds.(i)
      in
      if next <> idom.(i) then begin
        idom.(i) <- next;
        changed := true
      end
    done
  done;
  (* A block's immediate dominator precedes it in reverse postorder, so
     one pass in that order builds every dominator set from its parent's. *)
  let sets = Array.make n Label.Set.empty in
  sets.(0) <- Label.Set.singleton rpo.(0);
  for i = 1 to n - 1 do
    sets.(i) <- Label.Set.add rpo.(i) sets.(idom.(i))
  done;
  let unreachable =
    List.fold_left
      (fun m (b : Block.t) ->
        Label.Map.add b.Block.label (Label.Set.singleton b.Block.label) m)
      Label.Map.empty (Func.blocks f)
  in
  let doms = ref unreachable and idoms = ref Label.Map.empty in
  Array.iteri
    (fun i l ->
      doms := Label.Map.add l sets.(i) !doms;
      if i > 0 then idoms := Label.Map.add l rpo.(idom.(i)) !idoms)
    rpo;
  { doms = !doms; idoms = !idoms }

let dominators t l = Label.Map.find l t.doms

let dominates t a b = Label.Set.mem a (dominators t b)
let idom t l = Label.Map.find_opt l t.idoms
