open Capri_ir
module Loops = Capri_dataflow.Loops
module Inter = Capri_dataflow.Inter_liveness

(* ------------------------------------------------------------------ *)
(* Step 1: block normalization.                                        *)
(* ------------------------------------------------------------------ *)

(* Every Fence/Atomic_rmw must begin a block so its boundary can sit at a
   block start. *)
let split_at_triggers f =
  let rec fix_block (b : Block.t) =
    let rec find i = function
      | [] -> None
      | instr :: _ when i > 0 && Instr.is_boundary_trigger instr -> Some i
      | _ :: rest -> find (i + 1) rest
    in
    match find 0 b.Block.instrs with
    | None -> ()
    | Some i ->
      let succ = Func.split_block f b ~at:i in
      fix_block (Func.find f succ)
  in
  List.iter fix_block (Func.blocks f)

(* No single block may carry more stores than the chunk budget, otherwise
   even a block-sized region would overflow the threshold. *)
let chunk_big_blocks options f =
  let budget = max 1 (options.Options.threshold / 2) in
  let rec fix_block (b : Block.t) =
    let rec find i stores = function
      | [] -> None
      | instr :: rest ->
        let stores =
          if Instr.is_store instr then stores + 1 else stores
        in
        if stores > budget then Some i else find (i + 1) stores rest
    in
    match find 1 0 b.Block.instrs with
    | None -> ()
    | Some i ->
      let succ = Func.split_block f b ~at:(i - 1) in
      fix_block (Func.find f succ)
  in
  List.iter fix_block (Func.blocks f)

(* ------------------------------------------------------------------ *)
(* Step 2: unit graph with absorbed loops.                             *)
(* ------------------------------------------------------------------ *)

type unit_kind =
  | Ublock of Label.t
  | Uloop of { header : Label.t; body : Label.Set.t }

type unit_node = {
  kind : unit_kind;
  entry : Label.t;  (* block receiving the boundary if the unit heads a region *)
  blocks : Label.Set.t;
  weight : int;  (* worst-case stores (+ checkpoint estimate) per execution *)
  mandatory : bool;
  why_mandatory : Region_map.reason option;
      (* provenance when [mandatory]; non-mandatory units that still head
         a region get Threshold or Merge at assignment time *)
}

let block_trigger (b : Block.t) =
  match b.Block.instrs with
  | first :: _ -> Instr.is_boundary_trigger first
  | [] -> false

(* Checkpoint estimate per block: one potential checkpoint store for every
   live-out register the block defines (the stack pointer is checkpointed
   by the boundary hardware, not by stores). The actual insertion in Ckpt
   places at most one checkpoint per (block, register), so this estimate
   is a sound upper bound and breaks the circular dependence of 4.1. *)
let ckpt_estimate live f (b : Block.t) =
  let defs = Block.defs b in
  let live_out = Inter.live_out live f b.Block.label in
  Reg.Set.cardinal
    (Reg.Set.remove Reg.sp (Reg.Set.inter defs live_out))

let block_weight options live f b =
  Block.store_count b
  + if options.Options.ckpt then ckpt_estimate live f b else 0

(* Worst-case weighted store count of one loop execution: trips *
   (longest path through the body, treating it as a DAG). *)
let loop_weight options live f (loop : Loops.loop) ~trips =
  let memo = Label.Tbl.create 8 in
  let rec cost l =
    match Label.Tbl.find_opt memo l with
    | Some c -> c
    | None ->
      Label.Tbl.replace memo l 0;
      let b = Func.find f l in
      let here = block_weight options live f b in
      let succ_cost =
        List.fold_left
          (fun acc s ->
            if
              Label.Set.mem s loop.Loops.body
              && not (Label.equal s loop.Loops.header)
            then max acc (cost s)
            else acc)
          0 (Instr.term_succs b.term)
      in
      let c = here + succ_cost in
      Label.Tbl.replace memo l c;
      c
  in
  trips * cost loop.Loops.header

let loop_is_plain f (loop : Loops.loop) =
  Label.Set.for_all
    (fun l ->
      let b = Func.find f l in
      (not (block_trigger b))
      &&
      match b.Block.term with
      | Instr.Call _ | Instr.Ret | Instr.Halt -> false
      | Instr.Jump _ | Instr.Branch _ -> true)
    loop.Loops.body

(* Decide which loops to absorb: known trip count, no triggers or calls
   inside, not containing another non-absorbed loop, and total weighted
   stores within the threshold. Innermost loops are decided first so that
   outer loops can only absorb when the inner ones did. *)
let absorbed_loops options live f loops =
  if not options.Options.absorb_loops then []
  else begin
    let sorted =
      (* innermost first: Loops.loops is already deepest-first *)
      Loops.loops loops
    in
    let absorbed = ref [] in
    List.iter
      (fun (loop : Loops.loop) ->
        let inner_ok =
          List.for_all
            (fun (other : Loops.loop) ->
              Label.equal other.Loops.header loop.Loops.header
              || (not (Label.Set.mem other.Loops.header loop.Loops.body))
              || List.exists
                   (fun (a, _) ->
                     Label.equal a.Loops.header other.Loops.header)
                   !absorbed)
            sorted
        in
        match Loops.static_trip_count f loop with
        | Some trips
          when inner_ok && Loops.is_simple loops loop && loop_is_plain f loop
          ->
          (* Inner absorbed loops already multiply their own weight; for
             simplicity recompute with the flat body and inner trip counts
             folded in via a conservative product bound: only absorb when
             the flat product fits. *)
          let inner_product =
            List.fold_left
              (fun acc (inner, itrips) ->
                if
                  (not (Label.equal inner.Loops.header loop.Loops.header))
                  && Label.Set.mem inner.Loops.header loop.Loops.body
                then acc * max 1 itrips
                else acc)
              1 !absorbed
          in
          let w = loop_weight options live f loop ~trips * inner_product in
          if w <= options.Options.threshold && w >= 0 then
            absorbed := (loop, trips) :: !absorbed
        | Some _ | None -> ())
      sorted;
    (* Keep only maximal absorbed loops (drop those nested in another
       absorbed loop); their weight already covers the inner ones. *)
    let maximal =
      List.filter
        (fun ((loop : Loops.loop), _) ->
          List.for_all
            (fun ((other : Loops.loop), _) ->
              Label.equal other.Loops.header loop.Loops.header
              || not (Label.Set.mem loop.Loops.header other.Loops.body))
            !absorbed)
        !absorbed
    in
    List.map
      (fun ((loop : Loops.loop), trips) ->
        let inner_product =
          List.fold_left
            (fun acc ((inner : Loops.loop), itrips) ->
              if
                (not (Label.equal inner.Loops.header loop.Loops.header))
                && Label.Set.mem inner.Loops.header loop.Loops.body
              then acc * max 1 itrips
              else acc)
            1 !absorbed
        in
        (loop, loop_weight options live f loop ~trips * inner_product))
      maximal
  end

(* ------------------------------------------------------------------ *)
(* Step 3: greedy region assignment over the unit graph.               *)
(* ------------------------------------------------------------------ *)

type assignment = {
  region_of : int Label.Tbl.t;  (* block -> region id *)
  heads : (int * Label.t * int * Region_map.reason) list ref;
      (* id, head, store bound, boundary provenance *)
}

let build_units options live f loops =
  let absorbed = absorbed_loops options live f loops in
  let in_absorbed l =
    List.find_opt
      (fun ((loop : Loops.loop), _) -> Label.Set.mem l loop.Loops.body)
      absorbed
  in
  let ret_targets =
    List.fold_left
      (fun acc (b : Block.t) ->
        match b.Block.term with
        | Instr.Call { ret_to; _ } -> Label.Set.add ret_to acc
        | Instr.Jump _ | Instr.Branch _ | Instr.Ret | Instr.Halt -> acc)
      Label.Set.empty (Func.blocks f)
  in
  let non_absorbed_headers =
    Label.Set.filter
      (fun h ->
        not
          (List.exists
             (fun ((loop : Loops.loop), _) ->
               Label.Set.mem h loop.Loops.body)
             absorbed))
      (Loops.headers loops)
  in
  (* Priority order doubles as provenance: the first clause that fires
     names the reported reason. *)
  let why_mandatory_block l b =
    if Label.equal l (Func.entry f) then Some Region_map.Entry
    else if Label.Set.mem l ret_targets then Some Region_map.Call_return
    else if block_trigger b then Some Region_map.Trigger
    else if Label.Set.mem l non_absorbed_headers then
      Some Region_map.Loop_header
    else None
  in
  (* One unit per block not inside an absorbed loop; one unit per absorbed
     loop. *)
  let units = ref [] in
  let unit_of_block = Label.Tbl.create 32 in
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      match in_absorbed l with
      | Some (loop, w) ->
        if Label.equal l loop.Loops.header then begin
          let why =
            if Label.equal loop.Loops.header (Func.entry f) then
              Some Region_map.Entry
            else if
              Label.Set.exists
                (fun m -> Label.Set.mem m ret_targets)
                loop.Loops.body
            then Some Region_map.Call_return
            else None
          in
          let u =
            {
              kind = Uloop { header = loop.Loops.header; body = loop.Loops.body };
              entry = loop.Loops.header;
              blocks = loop.Loops.body;
              weight = w;
              mandatory = why <> None;
              why_mandatory = why;
            }
          in
          units := u :: !units;
          Label.Set.iter
            (fun m -> Label.Tbl.replace unit_of_block m loop.Loops.header)
            loop.Loops.body
        end
      | None ->
        let why = why_mandatory_block l b in
        let u =
          {
            kind = Ublock l;
            entry = l;
            blocks = Label.Set.singleton l;
            weight = block_weight options live f b;
            mandatory = why <> None;
            why_mandatory = why;
          }
        in
        units := u :: !units;
        Label.Tbl.replace unit_of_block l l)
    (Func.blocks f);
  (!units, unit_of_block)

let assign_regions options live f ~next_id =
  (* The splits ran before the liveness analysis, and marking boundaries
     adds no edge, so its numbering still fits the function. *)
  let loops = Loops.compute (Inter.cfg live f) in
  let units, unit_of_block = build_units options live f loops in
  let unit_by_entry = Label.Tbl.create 32 in
  List.iter (fun u -> Label.Tbl.replace unit_by_entry u.entry u) units;
  (* Unit-level edges: for each block edge (a -> b), an edge between the
     units, dropping unit self-edges (absorbed loop internals). *)
  let succs = Label.Tbl.create 32 in
  List.iter
    (fun u ->
      Label.Tbl.replace succs u.entry
        (Label.Set.fold
           (fun l acc ->
             let b = Func.find f l in
             List.fold_left
               (fun acc s ->
                 let su = Label.Tbl.find unit_of_block s in
                 if Label.equal su u.entry then acc else Label.Set.add su acc)
               acc (Instr.term_succs b.Block.term))
           u.blocks Label.Set.empty))
    units;
  let succs_of u = Label.Tbl.find succs u.entry in
  let preds = Label.Tbl.create 32 in
  List.iter
    (fun u ->
      Label.Set.iter
        (fun s ->
          let cur =
            match Label.Tbl.find_opt preds s with
            | Some set -> set
            | None -> Label.Set.empty
          in
          Label.Tbl.replace preds s (Label.Set.add u.entry cur))
        (succs_of u))
    units;
  let preds_of u =
    match Label.Tbl.find_opt preds u.entry with
    | Some s -> s
    | None -> Label.Set.empty
  in
  (* Reverse post order over units from the entry. *)
  let rpo =
    let visited = Label.Tbl.create 32 in
    let order = ref [] in
    let rec dfs entry =
      if not (Label.Tbl.mem visited entry) then begin
        Label.Tbl.replace visited entry ();
        let u = Label.Tbl.find unit_by_entry entry in
        Label.Set.iter dfs (succs_of u);
        order := entry :: !order
      end
    in
    dfs (Label.Tbl.find unit_of_block (Func.entry f));
    (* Unreachable units still need region ids for totality. *)
    List.iter (fun u -> if not (Label.Tbl.mem visited u.entry) then dfs u.entry)
      units;
    !order
  in
  let region_of_unit = Label.Tbl.create 32 in
  let cost_end = Label.Tbl.create 32 in
  let assignment =
    { region_of = Label.Tbl.create 64; heads = ref [] }
  in
  let bound_of_region = Hashtbl.create 16 in
  let start_region u ~reason =
    let id = !next_id in
    incr next_id;
    (* A mandatory unit reports its mandatory cause even when the greedy
       walk would also have cut here for another reason. *)
    let reason = Option.value u.why_mandatory ~default:reason in
    Label.Tbl.replace region_of_unit u.entry id;
    Label.Tbl.replace cost_end u.entry u.weight;
    Hashtbl.replace bound_of_region id u.weight;
    assignment.heads := (id, u.entry, u.weight, reason) :: !(assignment.heads)
  in
  List.iter
    (fun entry ->
      let u = Label.Tbl.find unit_by_entry entry in
      let ps = Label.Set.elements (preds_of u) in
      let pred_regions =
        List.filter_map (fun p -> Label.Tbl.find_opt region_of_unit p) ps
      in
      let all_assigned = List.length pred_regions = List.length ps in
      match pred_regions with
      | r :: rest
        when all_assigned
             && (not u.mandatory)
             && List.for_all (Int.equal r) rest ->
        let in_cost =
          List.fold_left
            (fun acc p ->
              match Label.Tbl.find_opt cost_end p with
              | Some c -> max acc c
              | None -> acc)
            0 ps
        in
        let total = in_cost + u.weight in
        if total <= options.Options.threshold then begin
          Label.Tbl.replace region_of_unit u.entry r;
          Label.Tbl.replace cost_end u.entry total;
          Hashtbl.replace bound_of_region r
            (max (Hashtbl.find bound_of_region r) total)
        end
        else start_region u ~reason:Region_map.Threshold
      | _ :: _ | [] -> start_region u ~reason:Region_map.Merge)
    rpo;
  (* Project unit assignment down to blocks. *)
  List.iter
    (fun u ->
      let id = Label.Tbl.find region_of_unit u.entry in
      Label.Set.iter
        (fun l -> Label.Tbl.replace assignment.region_of l id)
        u.blocks)
    units;
  let heads =
    List.rev_map
      (fun (id, head, _, reason) ->
        (id, head, Hashtbl.find bound_of_region id, reason))
      !(assignment.heads)
  in
  (assignment.region_of, heads)

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let run options (program : Program.t) =
  List.iter
    (fun f ->
      split_at_triggers f;
      chunk_big_blocks options f)
    program.Program.funcs;
  let live = Inter.compute program in
  let map = Region_map.create () in
  let next_id = ref 0 in
  List.iter
    (fun f ->
      let region_of, heads = assign_regions options live f ~next_id in
      let fname = Func.name f in
      (* Collect members per region id. *)
      let members = Hashtbl.create 16 in
      Label.Tbl.iter
        (fun l id ->
          let cur =
            match Hashtbl.find_opt members id with
            | Some s -> s
            | None -> Label.Set.empty
          in
          Hashtbl.replace members id (Label.Set.add l cur);
          Region_map.set_block map ~func:fname l id)
        region_of;
      List.iter
        (fun (id, head, bound, reason) ->
          Region_map.add_region map
            {
              Region_map.id;
              func = fname;
              head;
              members = Hashtbl.find members id;
              static_store_bound = bound;
              reason;
            };
          (* Physically mark the boundary. *)
          let hb = Func.find f head in
          hb.Block.instrs <- Instr.Boundary { id } :: hb.Block.instrs)
        heads)
    program.Program.funcs;
  map
