open Capri_ir

type t = {
  blocks : Block.t array;
  index : int Label.Tbl.t;
  succs : int list array;
  preds : int list array;
  rpo : int array;
}

let of_func f =
  let blocks = Array.of_list (Func.blocks f) in
  let n = Array.length blocks in
  let index = Label.Tbl.create n in
  Array.iteri (fun i (b : Block.t) -> Label.Tbl.replace index b.Block.label i)
    blocks;
  let number l = Label.Tbl.find index l in
  let succs =
    Array.map
      (fun (b : Block.t) -> List.map number (Instr.term_succs b.Block.term))
      blocks
  in
  let preds = Array.make n [] in
  Array.iteri (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    succs;
  (* Postorder numbers fill [post] from 0; reversed, they are the
     reverse postorder. *)
  let post = Array.make n (-1) and seen = Bytes.make n '\000' in
  let finished = ref 0 in
  let rec visit i =
    if Bytes.get seen i = '\000' then begin
      Bytes.set seen i '\001';
      List.iter visit succs.(i);
      post.(!finished) <- i;
      incr finished
    end
  in
  visit 0;
  let k = !finished in
  let rpo = Array.init k (fun j -> post.(k - 1 - j)) in
  { blocks; index; succs; preds; rpo }

let size t = Array.length t.blocks
let block t i = t.blocks.(i)
let label t i = t.blocks.(i).Block.label
let index t l = Label.Tbl.find t.index l
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let rpo t = t.rpo
