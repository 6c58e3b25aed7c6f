(* Set-based reference implementations of the dominator and loop
   analyses, as they stood before both moved onto the shared block
   numbering: each block's dominators as a label set, predecessors as a
   label-keyed map rebuilt per query. The qcheck properties compare
   [Dom] and [Loops] against these. *)

open Capri

let preds_map f =
  let init =
    List.fold_left
      (fun m (b : Block.t) -> Label.Map.add b.Block.label Label.Set.empty m)
      Label.Map.empty (Func.blocks f)
  in
  List.fold_left
    (fun m (b : Block.t) ->
      List.fold_left
        (fun m succ ->
          Label.Map.update succ
            (function
              | Some s -> Some (Label.Set.add b.Block.label s)
              | None -> Some (Label.Set.singleton b.Block.label))
            m)
        m (Instr.term_succs b.Block.term))
    init (Func.blocks f)

module Dom = struct
  type t = { doms : Label.Set.t Label.Map.t; idoms : Label.t Label.Map.t }

  (* Iterate "dominators of b = b + the intersection over b's reachable
     predecessors" to its fixpoint, every reachable set starting full. *)
  let compute f =
    let reachable = Label.Tbl.create 64 in
    let rec visit l =
      if not (Label.Tbl.mem reachable l) then begin
        Label.Tbl.add reachable l ();
        List.iter visit (Instr.term_succs (Func.find f l).Block.term)
      end
    in
    visit (Func.entry f);
    let labels =
      List.filter_map
        (fun (b : Block.t) ->
          if Label.Tbl.mem reachable b.Block.label then Some b.Block.label
          else None)
        (Func.blocks f)
    in
    let all = Label.Set.of_list labels in
    let preds = preds_map f in
    let doms =
      ref
        (List.fold_left
           (fun m l ->
             Label.Map.add l
               (if Label.equal l (Func.entry f) then Label.Set.singleton l
                else all)
               m)
           Label.Map.empty labels)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun l ->
          if not (Label.equal l (Func.entry f)) then begin
            let meet =
              Label.Set.fold
                (fun p acc ->
                  match Label.Map.find_opt p !doms with
                  | None -> acc
                  | Some d ->
                    Some
                      (match acc with
                       | None -> d
                       | Some a -> Label.Set.inter a d))
                (Label.Map.find l preds) None
            in
            let next =
              Label.Set.add l (Option.value ~default:Label.Set.empty meet)
            in
            if not (Label.Set.equal next (Label.Map.find l !doms)) then begin
              doms := Label.Map.add l next !doms;
              changed := true
            end
          end)
        labels
    done;
    (* The immediate dominator is the strict dominator every other strict
       dominator dominates. *)
    let idoms =
      Label.Map.fold
        (fun l ds acc ->
          let strict = Label.Set.remove l ds in
          match
            Label.Set.elements
              (Label.Set.filter
                 (fun d ->
                   Label.Set.for_all
                     (fun d' -> Label.Set.mem d' (Label.Map.find d !doms))
                     strict)
                 strict)
          with
          | [ d ] -> Label.Map.add l d acc
          | [] | _ :: _ :: _ -> acc)
        !doms Label.Map.empty
    in
    { doms = !doms; idoms }

  let dominates t a b =
    match Label.Map.find_opt b t.doms with
    | Some ds -> Label.Set.mem a ds
    | None -> Label.equal a b

  let idom t l = Label.Map.find_opt l t.idoms
end

module Loops = struct
  type loop = Loops.loop

  let natural_loop preds ~header ~latch =
    let body = ref (Label.Set.singleton header) in
    let rec visit l =
      if not (Label.Set.mem l !body) then begin
        body := Label.Set.add l !body;
        Label.Set.iter visit (Label.Map.find l preds)
      end
    in
    visit latch;
    !body

  let loops f : loop list =
    let dom = Dom.compute f in
    let back_edges =
      List.concat_map
        (fun (b : Block.t) ->
          List.filter_map
            (fun succ ->
              if Dom.dominates dom succ b.Block.label then
                Some (b.Block.label, succ)
              else None)
            (Instr.term_succs b.Block.term))
        (Func.blocks f)
    in
    let by_header =
      List.fold_left
        (fun m (latch, header) ->
          Label.Map.update header
            (function
              | Some latches -> Some (Label.Set.add latch latches)
              | None -> Some (Label.Set.singleton latch))
            m)
        Label.Map.empty back_edges
    in
    let preds = preds_map f in
    let raw =
      Label.Map.fold
        (fun header latches acc ->
          let body =
            Label.Set.fold
              (fun latch acc ->
                Label.Set.union acc (natural_loop preds ~header ~latch))
              latches Label.Set.empty
          in
          (header, latches, body) :: acc)
        by_header []
    in
    let depth_of header =
      List.length
        (List.filter
           (fun (h, _, body) ->
             (not (Label.equal h header)) && Label.Set.mem header body)
           raw)
      + 1
    in
    List.map
      (fun (header, latches, body) ->
        { Loops.header; latches; body; depth = depth_of header })
      raw
    |> List.stable_sort (fun (a : loop) (b : loop) ->
           Int.compare b.Loops.depth a.Loops.depth)

  let is_simple (loop : loop) = Label.Set.cardinal loop.Loops.latches = 1

  let is_unrollable f (loop : loop) =
    is_simple loop
    && Label.Set.for_all
         (fun l ->
           match (Func.find f l).Block.term with
           | Instr.Call _ | Instr.Ret | Instr.Halt -> false
           | Instr.Jump _ | Instr.Branch _ -> true)
         loop.Loops.body

  (* The canonical counted loop, as [Loops.static_trip_count] documents
     it, with the header's outside predecessor read from [preds_map]. *)
  let static_trip_count f (loop : loop) =
    let exception Unknown in
    let last_def_of (blk : Block.t) r =
      List.fold_left
        (fun acc (i : Instr.t) ->
          if Reg.Set.mem r (Instr.defs i) then Some i else acc)
        None blk.Block.instrs
    in
    try
      if Label.Set.cardinal loop.Loops.latches <> 1 then raise Unknown;
      let latch = Func.find f (Label.Set.choose loop.Loops.latches) in
      let header = Func.find f loop.Loops.header in
      let cond_reg, if_true, if_false =
        match header.Block.term with
        | Instr.Branch { cond = Instr.Reg c; if_true; if_false } ->
          (c, if_true, if_false)
        | Instr.Branch _ | Instr.Jump _ | Instr.Call _ | Instr.Ret
        | Instr.Halt ->
          raise Unknown
      in
      let body_on_true = Label.Set.mem if_true loop.Loops.body in
      if body_on_true = Label.Set.mem if_false loop.Loops.body then
        raise Unknown;
      let op, ivar, bound =
        match last_def_of header cond_reg with
        | Some (Instr.Binop { op; a = Instr.Reg i; b = Instr.Imm n; _ }) ->
          (op, i, n)
        | Some _ | None -> raise Unknown
      in
      let step =
        match last_def_of latch ivar with
        | Some
            (Instr.Binop
               { op = Instr.Add; dst; a = Instr.Reg src; b = Instr.Imm s })
          when Reg.equal dst ivar && Reg.equal src ivar ->
          s
        | Some _ | None -> raise Unknown
      in
      let defs =
        Label.Set.fold
          (fun l acc ->
            acc
            + List.length
                (List.filter
                   (fun i -> Reg.Set.mem ivar (Instr.defs i))
                   (Func.find f l).Block.instrs))
          loop.Loops.body 0
      in
      if defs <> 1 || step <= 0 then raise Unknown;
      let outside =
        Label.Set.diff
          (Label.Map.find loop.Loops.header (preds_map f))
          loop.Loops.latches
      in
      if Label.Set.cardinal outside <> 1 then raise Unknown;
      let init =
        match last_def_of (Func.find f (Label.Set.choose outside)) ivar with
        | Some (Instr.Mov { src = Instr.Imm v; _ }) -> v
        | Some _ | None -> raise Unknown
      in
      match (op, body_on_true) with
      | Instr.Lt, true ->
        Some (if init >= bound then 0 else (bound - init + step - 1) / step)
      | Instr.Le, true ->
        Some (if init > bound then 0 else ((bound - init) / step) + 1)
      | Instr.Ne, true ->
        if (bound - init) mod step <> 0 || bound < init then None
        else Some ((bound - init) / step)
      | _, _ -> None
    with Unknown -> None
end
