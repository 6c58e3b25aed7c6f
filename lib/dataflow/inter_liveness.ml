open Capri_ir

(* Each block is summarised once as (gen, kill): live-in = gen ∪
   (live-out ∖ kill). Register sets are masks, so a fixpoint visit costs
   a few integer operations and allocates nothing. *)

type func_live = {
  cfg : Cfg.t;
  gen : Reg.Set.t array;
  kill : Reg.Set.t array;
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
}

type t = {
  per_func : (string, func_live) Hashtbl.t;
  ret_out : (string, Reg.Set.t) Hashtbl.t;
      (* live-out at a function's Ret = r0 (return convention) plus every
         register live at some caller's continuation: values may flow
         callee -> caller -> later code without the caller touching them *)
}

let ret_live = Reg.Set.singleton (Reg.of_int 0)

let func_live f =
  let cfg = Cfg.of_func f in
  let n = Cfg.size cfg in
  let blocks = Array.init n (Cfg.block cfg) in
  {
    cfg;
    gen = Array.map Block.uses_before_def blocks;
    kill = Array.map Block.defs blocks;
    live_in = Array.make n Reg.Set.empty;
    live_out = Array.make n Reg.Set.empty;
  }

(* Solve one function to its fixpoint given the current callee entry
   live-ins and this function's return live-out; returns true if the
   function's entry live-in changed. A block's live-out joins its
   successors' live-ins (a call's successor is its continuation) with
   the callee's entry live-in at a call and [ret_out] at a return. *)
let solve_func fl ~callee_entry ~ret_out =
  let entry_before = fl.live_in.(0) in
  let n = Array.length fl.gen in
  let rec join acc = function
    | [] -> acc
    | s :: rest -> join (Reg.Set.union acc fl.live_in.(s)) rest
  in
  (* A stack of queued blocks, block 0 on top; [queued] keeps each on it
     at most once. *)
  let queued = Bytes.make n '\001' in
  let stack = Array.init n (fun i -> n - 1 - i) in
  let top = ref n in
  while !top > 0 do
    decr top;
    let i = stack.(!top) in
    Bytes.set queued i '\000';
    let beyond =
      match (Cfg.block fl.cfg i).Block.term with
      | Instr.Ret -> ret_out
      | Instr.Call { callee; _ } -> callee_entry callee
      | Instr.Halt | Instr.Jump _ | Instr.Branch _ -> Reg.Set.empty
    in
    let out = join beyond (Cfg.succs fl.cfg i) in
    fl.live_out.(i) <- out;
    let live_in = Reg.Set.union fl.gen.(i) (Reg.Set.diff out fl.kill.(i)) in
    if not (Reg.Set.equal live_in fl.live_in.(i)) then begin
      fl.live_in.(i) <- live_in;
      List.iter
        (fun p ->
          if Bytes.get queued p = '\000' then begin
            Bytes.set queued p '\001';
            stack.(!top) <- p;
            incr top
          end)
        (Cfg.preds fl.cfg i)
    end
  done;
  not (Reg.Set.equal fl.live_in.(0) entry_before)

let compute (program : Program.t) =
  let funcs =
    List.map (fun f -> (Func.name f, func_live f)) program.Program.funcs
  in
  let per_func = Hashtbl.create 16 in
  List.iter (fun (name, fl) -> Hashtbl.replace per_func name fl) funcs;
  let callee_entry name =
    match Hashtbl.find_opt per_func name with
    | Some fl -> fl.live_in.(0)
    | None -> Reg.Set.empty
  in
  let ret_out_tbl = Hashtbl.create 16 in
  let ret_out name =
    Option.value ~default:ret_live (Hashtbl.find_opt ret_out_tbl name)
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
        for i = 0 to Array.length fl.gen - 1 do
          match ((Cfg.block fl.cfg i).Block.term, Cfg.succs fl.cfg i) with
          | Instr.Call { callee; _ }, [ ret_to ] ->
            let cur = ret_out callee in
            let next = Reg.Set.union cur fl.live_in.(ret_to) in
            if not (Reg.Set.equal next cur) then begin
              Hashtbl.replace ret_out_tbl callee next;
              changed := true
            end
          | ( ( Instr.Call _ | Instr.Jump _ | Instr.Branch _ | Instr.Ret
              | Instr.Halt ),
              _ ) ->
            ()
        done)
      funcs
  done;
  { per_func; ret_out = ret_out_tbl }

let func_live t f = Hashtbl.find t.per_func (Func.name f)
let cfg t f = (func_live t f).cfg

let block_fact facts t f l =
  let fl = func_live t f in
  match Cfg.index fl.cfg l with
  | i -> (facts fl).(i)
  | exception Not_found -> Reg.Set.empty

let live_in t f l = block_fact (fun fl -> fl.live_in) t f l
let live_out t f l = block_fact (fun fl -> fl.live_out) t f l

let ret_live_out t name =
  Option.value ~default:ret_live (Hashtbl.find_opt t.ret_out name)

let entry_live_in t name =
  match Hashtbl.find_opt t.per_func name with
  | Some fl -> fl.live_in.(0)
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
