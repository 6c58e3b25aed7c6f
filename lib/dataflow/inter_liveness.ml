open Capri_ir

(* Register sets are bitmasks over the Reg.count = 32 registers, and each
   block is summarised once as (gen, kill): live-in = gen ∪ (live-out ∖
   kill). The fixpoint then costs a few integer operations per block
   visit; Reg.Set.t appears only in the accessors. *)

let mask_of_set s = Reg.Set.fold (fun r m -> m lor (1 lsl Reg.to_int r)) s 0

let set_of_mask m =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (if m land (1 lsl i) <> 0 then Reg.Set.add (Reg.of_int i) acc else acc)
  in
  go (Reg.count - 1) Reg.Set.empty

type exit =
  | Ret_exit
  | Halt_exit
  | Call_exit of { callee : string; ret_to : int }
  | Succs of int list

type func_live = {
  index : int Label.Tbl.t;  (* block label -> layout position *)
  entry : int;
  gen : int array;
  kill : int array;
  exits : exit array;
  preds : int list array;
  live_in : int array;
  live_out : int array;
}

type t = {
  per_func : (string, func_live) Hashtbl.t;
  ret_out : (string, int) Hashtbl.t;
      (* live-out at a function's Ret = r0 (return convention) plus every
         register live at some caller's continuation: values may flow
         callee -> caller -> later code without the caller touching them *)
}

let ret_live = Reg.Set.singleton (Reg.of_int 0)
let ret_live_mask = mask_of_set ret_live

(* Backward composition of the block's transfer: after the terminator's
   uses, each instruction, last first, adds its uses to gen once its defs
   are taken out. *)
let summarize (b : Block.t) =
  List.fold_right
    (fun i (gen, kill) ->
      let defs = mask_of_set (Instr.defs i) in
      (mask_of_set (Instr.uses i) lor (gen land lnot defs), kill lor defs))
    b.Block.instrs
    (mask_of_set (Instr.term_uses b.Block.term), 0)

let func_live f =
  let blocks = Array.of_list (Func.blocks f) in
  let n = Array.length blocks in
  let index = Label.Tbl.create n in
  Array.iteri (fun i (b : Block.t) -> Label.Tbl.replace index b.Block.label i)
    blocks;
  let pos l = Label.Tbl.find index l in
  let summaries = Array.map summarize blocks in
  let preds = Array.make n [] in
  Array.iteri
    (fun i (b : Block.t) ->
      List.iter
        (fun s -> preds.(pos s) <- i :: preds.(pos s))
        (Instr.term_succs b.Block.term))
    blocks;
  let exits =
    Array.map
      (fun (b : Block.t) ->
        match b.Block.term with
        | Instr.Ret -> Ret_exit
        | Instr.Halt -> Halt_exit
        | Instr.Call { callee; ret_to } ->
          Call_exit { callee; ret_to = pos ret_to }
        | (Instr.Jump _ | Instr.Branch _) as term ->
          Succs (List.map pos (Instr.term_succs term)))
      blocks
  in
  {
    index;
    entry = pos (Func.entry f);
    gen = Array.map fst summaries;
    kill = Array.map snd summaries;
    exits;
    preds;
    live_in = Array.make n 0;
    live_out = Array.make n 0;
  }

(* Solve one function to its fixpoint given the current callee entry
   live-ins and this function's return live-out; returns true if the
   function's entry live-in changed. *)
let solve_func fl ~callee_entry ~ret_out =
  let entry_before = fl.live_in.(fl.entry) in
  let n = Array.length fl.gen in
  let queued = Array.make n true in
  let work = ref (List.init n (fun i -> n - 1 - i)) in
  while !work <> [] do
    let i = List.hd !work in
    work := List.tl !work;
    queued.(i) <- false;
    let out =
      match fl.exits.(i) with
      | Ret_exit -> ret_out
      | Halt_exit -> 0
      | Call_exit { callee; ret_to } ->
        fl.live_in.(ret_to) lor callee_entry callee
      | Succs succs ->
        List.fold_left (fun acc s -> acc lor fl.live_in.(s)) 0 succs
    in
    fl.live_out.(i) <- out;
    let live_in = fl.gen.(i) lor (out land lnot fl.kill.(i)) in
    if live_in <> fl.live_in.(i) then begin
      fl.live_in.(i) <- live_in;
      List.iter
        (fun p ->
          if not queued.(p) then begin
            queued.(p) <- true;
            work := p :: !work
          end)
        fl.preds.(i)
    end
  done;
  fl.live_in.(fl.entry) <> entry_before

let compute (program : Program.t) =
  let funcs =
    List.map (fun f -> (Func.name f, func_live f)) program.Program.funcs
  in
  let per_func = Hashtbl.create 16 in
  List.iter (fun (name, fl) -> Hashtbl.replace per_func name fl) funcs;
  let callee_entry name =
    match Hashtbl.find_opt per_func name with
    | Some fl -> fl.live_in.(fl.entry)
    | None -> 0
  in
  let ret_out_tbl = Hashtbl.create 16 in
  let ret_out name =
    Option.value ~default:ret_live_mask (Hashtbl.find_opt ret_out_tbl name)
  in
  (* Iterate until neither cross-function fact moves: callee entry
     live-ins and per-function return live-outs both grow
     monotonically. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (name, fl) ->
        if solve_func fl ~callee_entry ~ret_out:(ret_out name) then
          changed := true)
      funcs;
    (* Refresh every callee's return live-out from its callers'
       continuation live-ins. *)
    List.iter
      (fun (_, fl) ->
        Array.iter
          (function
            | Call_exit { callee; ret_to } ->
              let cur = ret_out callee in
              let next = cur lor fl.live_in.(ret_to) in
              if next <> cur then begin
                Hashtbl.replace ret_out_tbl callee next;
                changed := true
              end
            | Ret_exit | Halt_exit | Succs _ -> ())
          fl.exits)
      funcs
  done;
  { per_func; ret_out = ret_out_tbl }

let func_live t f = Hashtbl.find t.per_func (Func.name f)

let block_fact facts t f l =
  let fl = func_live t f in
  match Label.Tbl.find_opt fl.index l with
  | Some i -> set_of_mask (facts fl).(i)
  | None -> Reg.Set.empty

let live_in t f l = block_fact (fun fl -> fl.live_in) t f l
let live_out t f l = block_fact (fun fl -> fl.live_out) t f l

let ret_live_out t name =
  match Hashtbl.find_opt t.ret_out name with
  | Some m -> set_of_mask m
  | None -> ret_live

let entry_live_in t name =
  match Hashtbl.find_opt t.per_func name with
  | Some fl -> set_of_mask fl.live_in.(fl.entry)
  | None -> Reg.Set.empty

let live_before_instrs t f (b : Block.t) =
  let n = List.length b.instrs in
  let result = Array.make (n + 1) Reg.Set.empty in
  let after_term =
    Reg.Set.union (live_out t f b.Block.label) (Instr.term_uses b.term)
  in
  result.(n) <- after_term;
  let instrs = Array.of_list b.instrs in
  for i = n - 1 downto 0 do
    let instr = instrs.(i) in
    result.(i) <-
      Reg.Set.union (Instr.uses instr)
        (Reg.Set.diff result.(i + 1) (Instr.defs instr))
  done;
  result
