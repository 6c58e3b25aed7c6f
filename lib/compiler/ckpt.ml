open Capri_ir
module Inter = Capri_dataflow.Inter_liveness

type report = { ckpts_inserted : int }

let region_live_out live (map : Region_map.t) (program : Program.t) =
  let result = Hashtbl.create 64 in
  let add id set =
    let cur =
      match Hashtbl.find_opt result id with
      | Some s -> s
      | None -> Reg.Set.empty
    in
    Hashtbl.replace result id (Reg.Set.union cur set)
  in
  List.iter
    (fun f ->
      let fname = Func.name f in
      List.iter
        (fun (b : Block.t) ->
          let id = Region_map.region_of_block map ~func:fname b.Block.label in
          match b.Block.term with
          | Instr.Call _ ->
            (* Inter-liveness already folds in the callee's entry live-in
               and the return continuation. *)
            add id (Inter.live_out live f b.Block.label)
          | Instr.Ret -> add id (Inter.ret_live_out live (Func.name f))
          | Instr.Halt -> ()
          | Instr.Jump _ | Instr.Branch _ ->
            List.iter
              (fun s ->
                let sid = Region_map.region_of_block map ~func:fname s in
                (* Crossing into another region, or back into this
                   region's own head (next dynamic instance of a loop
                   region, Figure 2a), passes a boundary. *)
                if sid <> id || Label.equal s (Region_map.head_of map id)
                then add id (Inter.live_in live f s))
              (Instr.term_succs b.Block.term))
        (Func.blocks f))
    program.Program.funcs;
  result

(* Insert one Ckpt after the last def (in this block) of every register in
   [want]: walking back from the block's end, the first def of a wanted
   register not yet checkpointed is its last. *)
let instrument_block (b : Block.t) want =
  if Reg.Set.is_empty (Reg.Set.inter want (Block.defs b)) then 0
  else begin
    let inserted = ref 0 in
    let rec go = function
      | [] -> ([], want)
      | instr :: rest ->
        let rest, pending = go rest in
        let fresh = Reg.Set.inter (Instr.defs instr) pending in
        let rest =
          Reg.Set.fold
            (fun reg acc ->
              incr inserted;
              Instr.Ckpt { reg; slot = Reg.to_int reg } :: acc)
            fresh rest
        in
        (instr :: rest, Reg.Set.diff pending fresh)
    in
    b.Block.instrs <- fst (go b.Block.instrs);
    !inserted
  end

let run (_options : Options.t) (program : Program.t) (map : Region_map.t) =
  let live = Inter.compute program in
  let rlo = region_live_out live map program in
  let inserted = ref 0 in
  List.iter
    (fun f ->
      let fname = Func.name f in
      List.iter
        (fun (b : Block.t) ->
          let id = Region_map.region_of_block map ~func:fname b.Block.label in
          let beyond =
            match Hashtbl.find_opt rlo id with
            | Some s -> s
            | None -> Reg.Set.empty
          in
          let want =
            Reg.Set.remove Reg.sp
              (Reg.Set.inter (Block.defs b)
                 (Reg.Set.inter (Inter.live_out live f b.Block.label) beyond))
          in
          inserted := !inserted + instrument_block b want)
        (Func.blocks f))
    program.Program.funcs;
  { ckpts_inserted = !inserted }
