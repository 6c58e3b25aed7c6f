open Capri_ir

type loop = {
  header : Label.t;
  latches : Label.Set.t;
  body : Label.Set.t;
  depth : int;
}

type t = { loops : loop list; headers : Label.Set.t }

(* Natural loop of a back edge latch->header: header plus everything that
   reaches the latch without going through the header. *)
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

let compute f =
  let dom = Dom.compute f in
  let back_edges =
    List.concat_map
      (fun (b : Block.t) ->
        List.filter_map
          (fun succ ->
            if Dom.dominates dom succ b.label then Some (b.label, succ)
            else None)
          (Instr.term_succs b.term))
      (Func.blocks f)
  in
  (* Group back edges by header; a header's loop is the union of its back
     edges' natural loops. *)
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
  let preds = Func.preds_map f in
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
  let loops =
    List.map
      (fun (header, latches, body) ->
        { header; latches; body; depth = depth_of header })
      raw
  in
  let loops =
    List.sort (fun a b -> Int.compare b.depth a.depth) loops
  in
  { loops; headers = Label.Set.of_list (List.map (fun l -> l.header) loops) }

let loops t = t.loops
let headers t = t.headers
let is_simple _t loop =
  Label.Set.cardinal loop.latches = 1

let block_calls_or_exits (b : Block.t) =
  match b.term with
  | Instr.Call _ | Instr.Ret | Instr.Halt -> true
  | Instr.Jump _ | Instr.Branch _ -> false

let is_unrollable f t loop =
  is_simple t loop
  && Label.Set.for_all
       (fun l -> not (block_calls_or_exits (Func.find f l)))
       loop.body

(* Recognize the canonical counted loop:
     preheader:  ... mov i, #init (last def of i)
     header:     c = lt/le/ne i, #bound ; branch c, body, exit
     latch:      ... add i, i, #step (last def of i) ; jump header
   Anything else is reported as unknown. *)
let static_trip_count f loop =
  if Label.Set.cardinal loop.latches <> 1 then None
  else
    let latch = Label.Set.choose loop.latches in
    let header_block = Func.find f loop.header in
    let latch_block = Func.find f latch in
    let exception Unknown in
    try
      let cond_reg, if_true, if_false =
        match header_block.term with
        | Instr.Branch { cond = Instr.Reg c; if_true; if_false } ->
          (c, if_true, if_false)
        | Instr.Branch _ | Instr.Jump _ | Instr.Call _ | Instr.Ret
        | Instr.Halt ->
          raise Unknown
      in
      (* The taken side must continue the loop, the other leave it. *)
      let body_on_true = Label.Set.mem if_true loop.body in
      if body_on_true = Label.Set.mem if_false loop.body then raise Unknown;
      let last_def_of blk r =
        List.fold_left
          (fun acc (i : Instr.t) ->
            if Reg.Set.mem r (Instr.defs i) then Some i else acc)
          None blk.Block.instrs
      in
      let op, ivar, bound =
        match last_def_of header_block cond_reg with
        | Some (Instr.Binop { op; a = Instr.Reg i; b = Instr.Imm n; _ }) ->
          (op, i, n)
        | Some _ | None -> raise Unknown
      in
      let step =
        match last_def_of latch_block ivar with
        | Some (Instr.Binop
                  { op = Instr.Add; dst; a = Instr.Reg src; b = Instr.Imm s })
          when Reg.equal dst ivar && Reg.equal src ivar ->
          s
        | Some _ | None -> raise Unknown
      in
      (* No other defs of the induction register anywhere in the loop. *)
      let defs_of_ivar blk =
        List.length
          (List.filter
             (fun i -> Reg.Set.mem ivar (Instr.defs i))
             blk.Block.instrs)
      in
      let total_defs =
        Label.Set.fold (fun l acc -> acc + defs_of_ivar (Func.find f l))
          loop.body 0
      in
      if total_defs <> 1 then raise Unknown;
      if step <= 0 then raise Unknown;
      (* Initial value: the unique non-latch predecessor of the header must
         end with a constant move into the induction register. *)
      let preds = Func.preds_map f in
      let outside =
        Label.Set.diff (Label.Map.find loop.header preds) loop.latches
      in
      if Label.Set.cardinal outside <> 1 then raise Unknown;
      let pre = Func.find f (Label.Set.choose outside) in
      let init =
        match last_def_of pre ivar with
        | Some (Instr.Mov { src = Instr.Imm v; _ }) -> v
        | Some _ | None -> raise Unknown
      in
      let continue_compares_true = body_on_true in
      let count =
        match (op, continue_compares_true) with
        | Instr.Lt, true ->
          if init >= bound then 0 else (bound - init + step - 1) / step
        | Instr.Le, true ->
          if init > bound then 0 else (bound - init) / step + 1
        | Instr.Ne, true ->
          if (bound - init) mod step <> 0 || bound < init then raise Unknown
          else (bound - init) / step
        | (Instr.Lt | Instr.Le | Instr.Ne), false -> raise Unknown
        | ( ( Instr.Add | Instr.Sub | Instr.Mul | Instr.Div | Instr.Rem
            | Instr.And | Instr.Or | Instr.Xor | Instr.Shl | Instr.Shr
            | Instr.Eq | Instr.Min | Instr.Max ), _ ) ->
          raise Unknown
      in
      Some count
    with Unknown -> None
