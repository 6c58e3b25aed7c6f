open Capri_ir
module Cfg = Capri_dataflow.Cfg
module Inter = Capri_dataflow.Inter_liveness

type recovery = { target : Reg.t; code : Func.t }
type table = (int * int, recovery) Hashtbl.t
type report = { ckpts_pruned : int; recovery_blocks : int }

(* ------------------------------------------------------------------ *)
(* Slice extraction over one region.                                   *)
(* ------------------------------------------------------------------ *)

exception Not_prunable

(* Fixed point of "registers whose defs inside the region matter":
   the target plus every branch predicate, closed under the uses of their
   in-region defs. All kept defs must be pure. *)
let relevant_regs f members ~target =
  let relevant = ref (Reg.Set.singleton target) in
  Label.Set.iter
    (fun l ->
      let b = Func.find f l in
      match b.Block.term with
      | Instr.Branch { cond = Instr.Reg c; _ } ->
        relevant := Reg.Set.add c !relevant
      | Instr.Branch { cond = Instr.Imm _; _ }
      | Instr.Jump _ | Instr.Call _ | Instr.Ret | Instr.Halt ->
        ())
    members;
  let changed = ref true in
  while !changed do
    changed := false;
    Label.Set.iter
      (fun l ->
        let b = Func.find f l in
        List.iter
          (fun (i : Instr.t) ->
            let defs = Instr.defs i in
            if Reg.Set.exists (fun d -> Reg.Set.mem d !relevant) defs then begin
              (match i with
               | Instr.Binop _ | Instr.Mov _ -> ()
               | Instr.Load _ | Instr.Atomic_rmw _ | Instr.Ckpt_load _ ->
                 raise Not_prunable
               | Instr.Store _ | Instr.Fence | Instr.Out _ | Instr.Boundary _
               | Instr.Ckpt _ ->
                 (* define nothing; unreachable given defs <> empty *)
                 assert false);
              let next = Reg.Set.union !relevant (Instr.uses i) in
              if not (Reg.Set.equal next !relevant) then begin
                relevant := next;
                changed := true
              end
            end)
          b.Block.instrs)
      members
  done;
  if Reg.Set.mem Reg.sp !relevant then raise Not_prunable;
  !relevant

let defined_in f members regs =
  Label.Set.fold
    (fun l acc ->
      let b = Func.find f l in
      List.fold_left
        (fun acc i -> Reg.Set.union acc (Instr.defs i))
        acc b.Block.instrs)
    members Reg.Set.empty
  |> Reg.Set.inter regs

(* Build the recovery mini-function: the region's control skeleton with
   only the relevant pure defs kept, exit edges retargeted at a Halt
   block, and Ckpt_loads of the leaves prepended at the entry. *)
let build_recovery f (region : Region_map.region) ~relevant ~leaves ~target =
  let members = region.Region_map.members in
  let done_label = Label.of_string "recovery.done" in
  let keep (i : Instr.t) =
    match i with
    | Instr.Binop { dst; _ } | Instr.Mov { dst; _ } ->
      Reg.Set.mem dst relevant
    | Instr.Load _ | Instr.Store _ | Instr.Atomic_rmw _ | Instr.Fence
    | Instr.Out _ | Instr.Boundary _ | Instr.Ckpt _ | Instr.Ckpt_load _ ->
      false
  in
  let map_label l = if Label.Set.mem l members then l else done_label in
  let blocks =
    Label.Set.fold
      (fun l acc ->
        let b = Func.find f l in
        let instrs = List.filter keep b.Block.instrs in
        let instrs =
          if Label.equal l region.Region_map.head then
            Reg.Set.fold
              (fun leaf acc ->
                Instr.Ckpt_load { dst = leaf; slot = Reg.to_int leaf } :: acc)
              leaves instrs
          else instrs
        in
        let term =
          match b.Block.term with
          | Instr.Jump t -> Instr.Jump (map_label t)
          | Instr.Branch { cond; if_true; if_false } ->
            Instr.Branch
              { cond; if_true = map_label if_true;
                if_false = map_label if_false }
          | Instr.Call _ | Instr.Ret | Instr.Halt -> raise Not_prunable
        in
        Block.create l instrs term :: acc)
      members []
  in
  let blocks = Block.create done_label [] Instr.Halt :: blocks in
  { target; code = Func.create ~name:"recovery" ~entry:region.head blocks }

(* ------------------------------------------------------------------ *)
(* Candidate discovery.                                                *)
(* ------------------------------------------------------------------ *)

(* Successor regions of [region] via plain jump/branch exits; raises
   Not_prunable when the region has call or return exits (their runtime
   successor region is not statically unique). *)
let successor_regions (map : Region_map.t) f (region : Region_map.region) =
  let fname = Func.name f in
  Label.Set.fold
    (fun l acc ->
      let b = Func.find f l in
      match b.Block.term with
      | Instr.Call _ | Instr.Ret -> raise Not_prunable
      | Instr.Halt -> acc
      | Instr.Jump _ | Instr.Branch _ ->
        List.fold_left
          (fun acc s ->
            let sid = Region_map.region_of_block map ~func:fname s in
            if sid <> region.Region_map.id then
              (if List.mem sid acc then acc else sid :: acc)
            else acc)
          acc (Instr.term_succs b.Block.term))
    region.Region_map.members []

let ckpts_of_reg_in_region f (region : Region_map.region) r =
  Label.Set.fold
    (fun l acc ->
      let b = Func.find f l in
      acc
      + List.length
          (List.filter
             (function
               | Instr.Ckpt { reg; _ } -> Reg.equal reg r
               | Instr.Binop _ | Instr.Mov _ | Instr.Load _ | Instr.Store _
               | Instr.Atomic_rmw _ | Instr.Fence | Instr.Out _
               | Instr.Boundary _ | Instr.Ckpt_load _ ->
                 false)
             b.Block.instrs))
    region.Region_map.members 0

let remove_ckpts_of_reg f (region : Region_map.region) r =
  Label.Set.iter
    (fun l ->
      let b = Func.find f l in
      b.Block.instrs <-
        List.filter
          (function
            | Instr.Ckpt { reg; _ } -> not (Reg.equal reg r)
            | Instr.Binop _ | Instr.Mov _ | Instr.Load _ | Instr.Store _
            | Instr.Atomic_rmw _ | Instr.Fence | Instr.Out _
            | Instr.Boundary _ | Instr.Ckpt_load _ ->
              true)
          b.Block.instrs)
    region.Region_map.members

(* A successor region's head must be entered exclusively from [r1] and not
   be a call continuation (whose runtime predecessor is the callee). *)
let head_reached_only_from (map : Region_map.t) cfg f ~from_id head =
  let fname = Func.name f in
  match Cfg.preds cfg (Cfg.index cfg head) with
  | [] -> false
  | ps ->
    List.for_all
      (fun p ->
        let b = Cfg.block cfg p in
        Region_map.region_of_block map ~func:fname b.Block.label = from_id
        &&
        match b.Block.term with
        | Instr.Call _ -> false
        | Instr.Jump _ | Instr.Branch _ -> true
        | Instr.Ret | Instr.Halt -> false)
      ps

let run (options : Options.t) (program : Program.t) (map : Region_map.t) =
  let live = Inter.compute program in
  let rlo = Ckpt.region_live_out live map program in
  let table : table = Hashtbl.create 16 in
  let locked = ref Reg.Set.empty in  (* registers serving as slice leaves *)
  let pruned_regs = ref Reg.Set.empty in  (* slots no longer maintained *)
  let pruned = ref 0 and blocks = ref 0 in
  let region_size (region : Region_map.region) f =
    Label.Set.fold
      (fun l acc -> acc + Block.instr_count (Func.find f l))
      region.Region_map.members 0
  in
  (* A static region whose head is re-entered from inside (a non-absorbed
     loop) spans several dynamic instances; the slice replay below models
     exactly one, so such regions are not sliced. *)
  let single_instance (region : Region_map.region) f =
    Label.Set.for_all
      (fun l ->
        let b = Func.find f l in
        not
          (List.exists
             (Label.equal region.Region_map.head)
             (Instr.term_succs b.Block.term)))
      region.Region_map.members
  in
  List.iter
    (fun (region : Region_map.region) ->
      let f = Program.find_func program region.Region_map.func in
      if
        region_size region f <= options.Options.prune_region_limit
        && single_instance region f
      then begin
        (* Registers checkpointed in this region are prune targets. *)
        let candidates =
          Reg.Set.elements
            (Label.Set.fold
               (fun l acc ->
                 List.fold_left
                   (fun acc i ->
                     match (i : Instr.t) with
                     | Instr.Ckpt { reg; _ } -> Reg.Set.add reg acc
                     | Instr.Binop _ | Instr.Mov _ | Instr.Load _
                     | Instr.Store _ | Instr.Atomic_rmw _ | Instr.Fence
                     | Instr.Out _ | Instr.Boundary _ | Instr.Ckpt_load _ ->
                       acc)
                   acc (Func.find f l).Block.instrs)
               region.Region_map.members Reg.Set.empty)
        in
        List.iter
          (fun r ->
            if not (Reg.Set.mem r !locked) then
              try
                let succ_ids = successor_regions map f region in
                if succ_ids = [] then raise Not_prunable;
                (* r must die inside every successor region and every
                   successor head must be entered only from here. *)
                List.iter
                  (fun sid ->
                    let s = Region_map.find map sid in
                    let beyond =
                      match Hashtbl.find_opt rlo sid with
                      | Some set -> set
                      | None -> Reg.Set.empty
                    in
                    if Reg.Set.mem r beyond then raise Not_prunable;
                    if not (Reg.Set.mem r (Inter.live_in live f s.Region_map.head))
                    then
                      (* Not needed there at all: harmless, but then the
                         checkpoint itself was for someone else; be
                         conservative. *)
                      raise Not_prunable;
                    if
                      not
                        (head_reached_only_from map (Inter.cfg live f) f
                           ~from_id:region.Region_map.id s.Region_map.head)
                    then raise Not_prunable)
                  succ_ids;
                let relevant =
                  relevant_regs f region.Region_map.members ~target:r
                in
                let defined = defined_in f region.Region_map.members relevant in
                if not (Reg.Set.mem r defined) then
                  (* r unchanged in the region: its older slot value is
                     already right only if it was checkpointed before,
                     which pruning would break. Skip. *)
                  raise Not_prunable;
                let leaves = Reg.Set.diff relevant defined in
                if Reg.Set.mem r leaves then raise Not_prunable;
                (* A leaf's slot must still be maintained somewhere. *)
                if not (Reg.Set.is_empty (Reg.Set.inter leaves !pruned_regs))
                then raise Not_prunable;
                let recovery =
                  build_recovery f region ~relevant ~leaves ~target:r
                in
                let n = ckpts_of_reg_in_region f region r in
                if n = 0 then raise Not_prunable;
                remove_ckpts_of_reg f region r;
                locked := Reg.Set.union !locked leaves;
                pruned_regs := Reg.Set.add r !pruned_regs;
                List.iter
                  (fun sid ->
                    Hashtbl.replace table (sid, Reg.to_int r) recovery;
                    incr blocks)
                  succ_ids;
                pruned := !pruned + n
              with Not_prunable -> ())
          candidates
      end)
    (Region_map.regions map);
  (table, { ckpts_pruned = !pruned; recovery_blocks = !blocks })
