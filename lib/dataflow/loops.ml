open Capri_ir

type loop = {
  header : Label.t;
  latches : Label.Set.t;
  body : Label.Set.t;
  depth : int;
}

type t = { loops : loop list; headers : Label.Set.t }

(* Each header's loop, from the back edges latch -> header (the header
   dominates the latch): the header plus every block that reaches one of
   its latches without going through the header, found by walking
   predecessors back from the latches. *)
let compute cfg =
  let dom = Dom.compute cfg in
  let n = Cfg.size cfg in
  let latches = Array.make n [] in
  for b = 0 to n - 1 do
    List.iter
      (fun s ->
        if Dom.dominates_index dom s b then latches.(s) <- b :: latches.(s))
      (Cfg.succs cfg b)
  done;
  let raw = ref [] in
  for h = n - 1 downto 0 do
    if latches.(h) <> [] then begin
      let body = Bytes.make n '\000' in
      Bytes.set body h '\001';
      let rec visit b =
        if Bytes.get body b = '\000' then begin
          Bytes.set body b '\001';
          List.iter visit (Cfg.preds cfg b)
        end
      in
      List.iter visit latches.(h);
      raw := (h, body) :: !raw
    end
  done;
  let depth h =
    List.fold_left
      (fun d (h', body) ->
        if h' <> h && Bytes.get body h <> '\000' then d + 1 else d)
      1 !raw
  in
  let loops =
    List.map
      (fun (h, body) ->
        let members = ref [] in
        for b = n - 1 downto 0 do
          if Bytes.get body b <> '\000' then
            members := Cfg.label cfg b :: !members
        done;
        {
          header = Cfg.label cfg h;
          latches = Label.Set.of_list (List.map (Cfg.label cfg) latches.(h));
          body = Label.Set.of_list !members;
          depth = depth h;
        })
      !raw
  in
  (* Deepest first, and among equal depths by descending header label. *)
  let loops =
    List.sort
      (fun a b ->
        match Int.compare b.depth a.depth with
        | 0 -> Label.compare b.header a.header
        | c -> c)
      loops
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
      (* Initial value: the unique non-latch predecessor of the header
         must end with a constant move into the induction register. The
         function is scanned as it is now: the unroller asks after
         rewriting other loops, which can add predecessors. *)
      let pre =
        match
          List.filter
            (fun (b : Block.t) ->
              (not (Label.Set.mem b.Block.label loop.latches))
              && List.exists (Label.equal loop.header)
                   (Instr.term_succs b.Block.term))
            (Func.blocks f)
        with
        | [ pre ] -> pre
        | [] | _ :: _ :: _ -> raise Unknown
      in
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
