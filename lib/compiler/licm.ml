open Capri_ir
module Loops = Capri_dataflow.Loops

type report = { ckpts_hoisted : int; ckpts_deduped : int }

let is_ckpt_of r = function
  | Instr.Ckpt { reg; _ } -> Reg.equal reg r
  | Instr.Binop _ | Instr.Mov _ | Instr.Load _ | Instr.Store _
  | Instr.Atomic_rmw _ | Instr.Fence | Instr.Out _ | Instr.Boundary _
  | Instr.Ckpt_load _ ->
    false

let ckpt_regs_of_block (b : Block.t) =
  List.fold_left
    (fun acc i ->
      match (i : Instr.t) with
      | Instr.Ckpt { reg; _ } -> Reg.Set.add reg acc
      | Instr.Binop _ | Instr.Mov _ | Instr.Load _ | Instr.Store _
      | Instr.Atomic_rmw _ | Instr.Fence | Instr.Out _ | Instr.Boundary _
      | Instr.Ckpt_load _ ->
        acc)
    Reg.Set.empty b.Block.instrs

(* ------------------------------------------------------------------ *)
(* Checkpoint sinking to region-exit edges.                            *)
(* ------------------------------------------------------------------ *)

(* Because only the last staged value per register matters at the commit,
   a register's checkpoints can be replaced by exactly one checkpoint on
   every exit edge of the region instance: the paper's "moving checkpoints
   out of loops" (Figure 4), generalized. One dynamic region execution
   then stages each sunk register exactly once, however many iterations an
   unrolled or absorbed loop ran inside the region.

   Exit edges of a dynamic instance are: edges leaving the region's
   blocks, edges re-entering the region head (the next instance of a loop
   region), and Call/Ret terminators (the callee/caller boundary commits).
   Edges are split with a fresh block holding the checkpoints; for
   Call/Ret exits the checkpoints go just before the terminator.

   Sinking is applied per (region, register) when it strictly reduces the
   dynamic count: the register has several checkpoints in the region, or
   a checkpoint sits inside a loop contained in the instance. *)

(* Loops whose whole body lies in the region and whose header is not the
   region head: they run entirely within one dynamic instance. *)
let instance_loops (region : Region_map.region) loops =
  List.filter
    (fun (loop : Loops.loop) ->
      (not (Label.equal loop.Loops.header region.Region_map.head))
      && Label.Set.subset loop.Loops.body region.Region_map.members)
    (Loops.loops loops)

(* Each member's predecessors within the instance subgraph: edges into
   the region head are instance exits, not internal. *)
let internal_preds f (region : Region_map.region) =
  let members = region.Region_map.members in
  let preds = Label.Tbl.create 8 in
  Label.Set.iter
    (fun l ->
      let b = Func.find f l in
      List.iter
        (fun s ->
          if Label.Set.mem s members && not (Label.equal s region.Region_map.head)
          then
            Label.Tbl.replace preds s
              (l :: (Option.value ~default:[] (Label.Tbl.find_opt preds s))))
        (Instr.term_succs b.Block.term))
    members;
  preds

(* May-availability of "a Ckpt r executed since entering this instance"
   at each block's end, within the instance subgraph. *)
let availability f (region : Region_map.region) preds reg =
  let at_end = Label.Tbl.create 8 in
  let get l = Option.value ~default:false (Label.Tbl.find_opt at_end l) in
  let block_has_ckpt l =
    List.exists (is_ckpt_of reg) (Func.find f l).Block.instrs
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Label.Set.iter
      (fun l ->
        let incoming =
          List.exists get
            (Option.value ~default:[] (Label.Tbl.find_opt preds l))
        in
        let v = incoming || block_has_ckpt l in
        if v <> get l then begin
          Label.Tbl.replace at_end l v;
          changed := true
        end)
      region.Region_map.members
  done;
  get

(* A block with an edge that ends the instance: a call or return, or a
   jump out of the region or back to its head. *)
let is_exit_block (region : Region_map.region) (b : Block.t) =
  match b.Block.term with
  | Instr.Call _ | Instr.Ret -> true
  | Instr.Halt -> false
  | Instr.Jump _ | Instr.Branch _ ->
    List.exists
      (fun v ->
        (not (Label.Set.mem v region.Region_map.members))
        || Label.equal v region.Region_map.head)
      (Instr.term_succs b.Block.term)

(* Split the exit edge u -> v (v outside the instance) with a block that
   stages [regs] and jumps on. The new block joins u's region. *)
let split_exit_edge map f (region : Region_map.region) (u : Block.t) v regs =
  let ckpts =
    Reg.Set.fold
      (fun reg acc -> Instr.Ckpt { reg; slot = Reg.to_int reg } :: acc)
      regs []
  in
  let label = Func.fresh_label f (Label.to_string u.Block.label ^ ".sink") in
  Func.insert_after f u.Block.label (Block.create label ckpts (Instr.Jump v));
  Region_map.set_block map ~func:(Func.name f) label region.Region_map.id;
  let retarget l = if Label.equal l v then label else l in
  u.Block.term <-
    (match u.Block.term with
     | Instr.Jump l -> Instr.Jump (retarget l)
     | Instr.Branch { cond; if_true; if_false } ->
       (* Split only the edge into v; a branch with both sides on v gets a
          single split block. *)
       Instr.Branch
         { cond; if_true = retarget if_true; if_false = retarget if_false }
     | (Instr.Call _ | Instr.Ret | Instr.Halt) as t -> t)

let sink_in_region options map f loops (region : Region_map.region) =
  let members = region.Region_map.members in
  let in_instance = instance_loops region loops in
  let candidates =
    Label.Set.fold
      (fun l acc -> Reg.Set.union acc (ckpt_regs_of_block (Func.find f l)))
      members Reg.Set.empty
  in
  (* Cheap gate: only registers with repeated or in-loop checkpoints can
     profit. *)
  let interesting reg =
    let count = ref 0 and in_loop = ref false in
    Label.Set.iter
      (fun l ->
        let b = Func.find f l in
        let n = List.length (List.filter (is_ckpt_of reg) b.Block.instrs) in
        if n > 0 then begin
          count := !count + n;
          if
            List.exists
              (fun (loop : Loops.loop) -> Label.Set.mem l loop.Loops.body)
              in_instance
          then in_loop := true
        end)
      members;
    !in_loop || !count >= 2
  in
  let candidates = Reg.Set.filter interesting candidates in
  if
    Reg.Set.is_empty candidates
    || region.Region_map.static_store_bound + Reg.Set.cardinal candidates
       > options.Options.threshold
  then 0
  else begin
    (* Remove every candidate's checkpoints and stage once at each exit
       block where a staging may have happened (standard loops-are-hot
       assumption: the O(trip) -> O(1) win on iterating paths outweighs
       one spurious staging on early-exit paths; a mostly-zero-trip loop
       can lose, which is why the evaluation, like the paper's, also
       reports the best optimization combination per benchmark). Exits no
       baseline path staged on keep their older, still-sufficient slot
       value. *)
    let removed_total = ref 0 in
    let stage_at : Reg.Set.t Label.Tbl.t = Label.Tbl.create 8 in
    (* Removing checkpoints leaves every terminator as it is, so one
       predecessor table serves all candidates. *)
    let preds = internal_preds f region in
    Reg.Set.iter
      (fun reg ->
        let may = availability f region preds reg in
        let sites =
          Label.Set.filter
            (fun l ->
              List.exists (is_ckpt_of reg) (Func.find f l).Block.instrs)
            members
        in
        if not (Label.Set.is_empty sites) then begin
          Label.Set.iter
            (fun l ->
              let b = Func.find f l in
              let before = List.length b.Block.instrs in
              b.Block.instrs <-
                List.filter (fun i -> not (is_ckpt_of reg i)) b.Block.instrs;
              removed_total := !removed_total + before
                               - List.length b.Block.instrs)
            sites;
          Label.Set.iter
            (fun l' ->
              let b' = Func.find f l' in
              if is_exit_block region b' && may l' then
                Label.Tbl.replace stage_at l'
                  (Reg.Set.add reg
                     (Option.value ~default:Reg.Set.empty
                        (Label.Tbl.find_opt stage_at l'))))
            members
        end)
      candidates;
    (* Apply the stagings. *)
    let is_exit_target v =
      (not (Label.Set.mem v members))
      || Label.equal v region.Region_map.head
    in
    Label.Tbl.iter
      (fun l regs ->
        let u = Func.find f l in
        match u.Block.term with
        | Instr.Call _ | Instr.Ret ->
          let ckpt_list =
            Reg.Set.fold
              (fun reg acc -> Instr.Ckpt { reg; slot = Reg.to_int reg } :: acc)
              regs []
          in
          u.Block.instrs <- u.Block.instrs @ ckpt_list
        | Instr.Halt -> ()
        | Instr.Jump v ->
          if is_exit_target v then split_exit_edge map f region u v regs
        | Instr.Branch { if_true; if_false; _ } ->
          let t_exit = is_exit_target if_true in
          let f_exit = is_exit_target if_false in
          if t_exit && f_exit && Label.equal if_true if_false then
            split_exit_edge map f region u if_true regs
          else begin
            if t_exit then split_exit_edge map f region u if_true regs;
            (* The first split rewrites the terminator; the second split
               re-reads it. *)
            if f_exit then split_exit_edge map f region u if_false regs
          end)
      stage_at;
    !removed_total
  end

(* ------------------------------------------------------------------ *)
(* Anticipation-based dedup.                                           *)
(* ------------------------------------------------------------------ *)

(* A checkpoint of r is removable when every path from just after it to
   the end of the dynamic instance passes another Ckpt r. Edges into the
   region head count as instance exits. *)
let dedup_in_region f (region : Region_map.region) =
  let members = region.Region_map.members in
  let in_region l =
    Label.Set.mem l members && not (Label.equal l region.Region_map.head)
  in
  let exit_fact (b : Block.t) anticipated_of =
    match b.Block.term with
    | Instr.Jump _ | Instr.Branch _ ->
      let succs = Instr.term_succs b.Block.term in
      List.fold_left
        (fun acc s ->
          let fact =
            if in_region s then anticipated_of s else Reg.Set.empty
          in
          match acc with
          | None -> Some fact
          | Some a -> Some (Reg.Set.inter a fact))
        None succs
      |> Option.value ~default:Reg.Set.empty
    | Instr.Call _ | Instr.Ret | Instr.Halt -> Reg.Set.empty
  in
  let entry_facts = Label.Tbl.create 8 in
  let get l =
    match Label.Tbl.find_opt entry_facts l with
    | Some s -> s
    | None -> Reg.Set.empty
  in
  let transfer (b : Block.t) fact =
    List.fold_right
      (fun i fact ->
        match (i : Instr.t) with
        | Instr.Ckpt { reg; _ } -> Reg.Set.add reg fact
        | Instr.Binop _ | Instr.Mov _ | Instr.Load _ | Instr.Store _
        | Instr.Atomic_rmw _ | Instr.Fence | Instr.Out _ | Instr.Boundary _
        | Instr.Ckpt_load _ ->
          fact)
      b.Block.instrs fact
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Label.Set.iter
      (fun l ->
        match Func.find f l with
        | b ->
          let fact = transfer b (exit_fact b get) in
          if not (Reg.Set.equal fact (get l)) then begin
            Label.Tbl.replace entry_facts l fact;
            changed := true
          end
        | exception Not_found -> ())
      members
  done;
  let removed = ref 0 in
  Label.Set.iter
    (fun l ->
      match Func.find f l with
      | exception Not_found -> ()
      | b ->
        let instrs = Array.of_list b.Block.instrs in
        let n = Array.length instrs in
        let keep = Array.make n true in
        let fact = ref (exit_fact b get) in
        for i = n - 1 downto 0 do
          (match instrs.(i) with
           | Instr.Ckpt { reg; _ } ->
             if Reg.Set.mem reg !fact then begin
               keep.(i) <- false;
               incr removed
             end
             else fact := Reg.Set.add reg !fact
           | Instr.Binop _ | Instr.Mov _ | Instr.Load _ | Instr.Store _
           | Instr.Atomic_rmw _ | Instr.Fence | Instr.Out _
           | Instr.Boundary _ | Instr.Ckpt_load _ ->
             ())
        done;
        if Array.exists not keep then
          b.Block.instrs <- List.filteri (fun i _ -> keep.(i)) b.Block.instrs)
    members;
  !removed

let run (options : Options.t) (program : Program.t) (map : Region_map.t) =
  let regions = Region_map.regions map in
  (* One loop analysis per function serves all of its regions: regions
     partition the function's blocks, and sinking in one region only
     splits edges leaving it, with split blocks that no other region's
     members contain. A loop lying wholly inside another region keeps its
     header and body, so that region's instance loops are the same as
     after a fresh analysis. *)
  let hoisted =
    List.fold_left
      (fun acc f ->
        let name = Func.name f in
        let loops = Loops.compute (Capri_dataflow.Cfg.of_func f) in
        List.fold_left
          (fun acc (region : Region_map.region) ->
            if String.equal region.Region_map.func name then
              acc + sink_in_region options map f loops region
            else acc)
          acc regions)
      0 program.Program.funcs
  in
  let deduped =
    List.fold_left
      (fun acc (region : Region_map.region) ->
        let f = Program.find_func program region.Region_map.func in
        acc + dedup_in_region f region)
      0 regions
  in
  { ckpts_hoisted = hoisted; ckpts_deduped = deduped }
