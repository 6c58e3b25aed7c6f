open Capri_ir
module Loops = Capri_dataflow.Loops

type report = {
  loops_seen : int;
  loops_unrolled : int;
  total_factor : int;
}

(* Worst-case stores along one pass through the loop body, treating the
   body as a DAG (back edge removed): longest path by store weight. *)
let max_path_stores f (loop : Loops.loop) =
  let memo = Label.Tbl.create 8 in
  let rec cost l =
    match Label.Tbl.find_opt memo l with
    | Some c -> c
    | None ->
      Label.Tbl.replace memo l 0;  (* cycle guard; bodies are reducible *)
      let b = Func.find f l in
      let here = Block.store_count b in
      let succ_cost =
        List.fold_left
          (fun acc s ->
            if Label.Set.mem s loop.Loops.body && not (Label.equal s loop.header)
            then max acc (cost s)
            else acc)
          0 (Instr.term_succs b.term)
      in
      let c = here + succ_cost in
      Label.Tbl.replace memo l c;
      c
  in
  cost loop.Loops.header

let body_instr_count f (loop : Loops.loop) =
  Label.Set.fold
    (fun l acc -> acc + Block.instr_count (Func.find f l))
    loop.Loops.body 0

let pick_factor (options : Options.t) ~stores ~instrs =
  let by_stores =
    if stores <= 0 then options.Options.unroll_max
    else max 1 (options.Options.threshold / 2 / stores)
  in
  let by_growth = if instrs <= 0 then 1 else options.unroll_code_growth / instrs in
  min options.unroll_max (min by_stores by_growth)

(* Clone the loop body [factor - 1] times. Copy 0 is the original; copy
   k's back edge enters copy (k + 1 mod factor)'s header (the original
   header for the last copy). All exit edges keep their original targets. *)
let unroll_loop f (loop : Loops.loop) ~factor =
  let latch = Label.Set.choose loop.Loops.latches in
  let copies =
    Array.init (factor - 1) (fun k ->
        Label.Set.fold
          (fun l m ->
            Label.Map.add l
              (Func.fresh_label f
                 (Label.to_string l ^ ".u" ^ string_of_int (k + 1)))
              m)
          loop.Loops.body Label.Map.empty)
  in
  let header_of_copy k =
    if k = 0 then loop.header
    else Label.Map.find loop.header copies.(k - 1)
  in
  let map_label k l =
    (* Map an in-body label to copy k; out-of-body labels are exits and
       stay put. k = 0 is the identity. *)
    if k = 0 || not (Label.Set.mem l loop.Loops.body) then l
    else Label.Map.find l copies.(k - 1)
  in
  let retarget k ~is_latch term =
    let next_header = header_of_copy ((k + 1) mod factor) in
    let map l =
      if Label.equal l loop.header && is_latch then next_header
      else map_label k l
    in
    match (term : Instr.terminator) with
    | Jump l -> Instr.Jump (map l)
    | Branch { cond; if_true; if_false } ->
      Instr.Branch { cond; if_true = map if_true; if_false = map if_false }
    | Call _ | Ret | Halt -> term  (* excluded by is_unrollable *)
  in
  (* Create the clone blocks. *)
  for k = 1 to factor - 1 do
    Label.Set.iter
      (fun l ->
        let src = Func.find f l in
        let is_latch = Label.equal l latch in
        let clone =
          Block.create (map_label k l) src.Block.instrs
            (retarget k ~is_latch src.Block.term)
        in
        Func.add_block f clone)
      loop.Loops.body
  done;
  (* Redirect the original latch into the first clone's header. *)
  if factor > 1 then begin
    let orig_latch = Func.find f latch in
    orig_latch.Block.term <-
      retarget 0 ~is_latch:true orig_latch.Block.term
  end

let innermost loops loop =
  (* No other loop's header strictly inside this body. *)
  List.for_all
    (fun (other : Loops.loop) ->
      Label.equal other.Loops.header loop.Loops.header
      || not (Label.Set.mem other.Loops.header loop.Loops.body))
    (Loops.loops loops)

let run_func ?hints options f =
  let loops = Loops.compute (Capri_dataflow.Cfg.of_func f) in
  let seen = ref 0 and unrolled = ref 0 and total = ref 0 in
  List.iter
    (fun (loop : Loops.loop) ->
      incr seen;
      let known = Loops.static_trip_count f loop in
      if
        Loops.is_unrollable f loops loop
        && innermost loops loop
        && known = None
      then begin
        let stores = max_path_stores f loop in
        let instrs = body_instr_count f loop in
        let factor =
          (* A profile hint (measured mean trips of this header) can raise
             the factor beyond the static heuristic — a measured count
             justifies exceeding [unroll_max] — but never above what the
             store threshold and the code-growth budget allow, and never
             below the static choice (a larger factor costs nothing
             dynamically: every copy keeps its exit test). *)
          let static = pick_factor options ~stores ~instrs in
          match hints with
          | None -> static
          | Some lookup -> (
            match
              lookup (Func.name f) (Label.to_string loop.Loops.header)
            with
            | Some trips ->
              let by_stores =
                if stores <= 0 then max_int / 2
                else max 1 (options.Options.threshold / 2 / stores)
              in
              let by_growth =
                if instrs <= 0 then max_int / 2
                else max 1 (options.unroll_code_growth / instrs)
              in
              max static (min trips (min by_stores by_growth))
            | None -> static)
        in
        if factor >= 2 then begin
          unroll_loop f loop ~factor;
          incr unrolled;
          total := !total + factor
        end
      end)
    (Loops.loops loops);
  (!seen, !unrolled, !total)

let run ?hints options (program : Program.t) =
  let seen = ref 0 and unrolled = ref 0 and total = ref 0 in
  List.iter
    (fun f ->
      let s, u, t = run_func ?hints options f in
      seen := !seen + s;
      unrolled := !unrolled + u;
      total := !total + t)
    program.Program.funcs;
  { loops_seen = !seen; loops_unrolled = !unrolled; total_factor = !total }
