open Capri_ir
module Arch = Capri_arch
module Compiled = Capri_compiler.Compiled
module Options = Capri_compiler.Options
module Prune = Capri_compiler.Prune

(* Recovery blocks are pure mini-CFGs over Binop/Mov/Ckpt_load with
   Jump/Branch control and Halt exits; interpret one against a slot
   array. *)
let run_recovery_block (slots : int array) (recovery : Prune.recovery) =
  let code = recovery.Prune.code in
  let regs = Array.make Reg.count 0 in
  let operand = function
    | Instr.Reg r -> regs.(Reg.to_int r)
    | Instr.Imm i -> i
  in
  let steps = ref 0 in
  let rec exec_block label =
    incr steps;
    if !steps > 1_000_000 then
      failwith "Recovery: recovery block does not terminate";
    let b = Func.find code label in
    List.iter
      (fun (i : Instr.t) ->
        match i with
        | Instr.Binop { op; dst; a; b } ->
          regs.(Reg.to_int dst) <- Instr.eval_binop op (operand a) (operand b)
        | Instr.Mov { dst; src } -> regs.(Reg.to_int dst) <- operand src
        | Instr.Ckpt_load { dst; slot } -> regs.(Reg.to_int dst) <- slots.(slot)
        | Instr.Load _ | Instr.Store _ | Instr.Atomic_rmw _ | Instr.Fence
        | Instr.Out _ | Instr.Boundary _ | Instr.Ckpt _ ->
          failwith "Recovery: impure instruction in recovery block")
      b.Block.instrs;
    match b.Block.term with
    | Instr.Jump l -> exec_block l
    | Instr.Branch { cond; if_true; if_false } ->
      exec_block (if operand cond <> 0 then if_true else if_false)
    | Instr.Halt -> ()
    | Instr.Call _ | Instr.Ret ->
      failwith "Recovery: call in recovery block"
  in
  exec_block (Func.entry code);
  slots.(Reg.to_int recovery.Prune.target) <-
    regs.(Reg.to_int recovery.Prune.target)

(* A core's recovery blocks read and write only that core's slot array;
   the per-core counts feed the restart bill, which charges the slowest
   core (see the serving layer's [recovery_penalty]). *)
let apply_recovery_blocks_per_core (compiled : Compiled.t)
    (image : Arch.Persist.image) =
  Array.mapi
    (fun core (resume : Arch.Persist.resume) ->
      match resume with
      | Arch.Persist.Resume { boundary; _ } ->
        let recoveries = Compiled.find_recovery compiled ~boundary in
        List.iter
          (run_recovery_block image.Arch.Persist.slots.(core))
          recoveries;
        List.length recoveries
      | Arch.Persist.Done | Arch.Persist.Never_started -> 0)
    image.Arch.Persist.resume

let machine ?config ?mode ?journal_io ?obs ?threads (compiled : Compiled.t) =
  let program = compiled.Compiled.program in
  Executor.start ?config ?mode ?journal_io ?obs
    ~check_threshold:compiled.Compiled.options.Options.threshold ~program
    ~threads:(Option.value threads ~default:[ Executor.main_thread program ])
    ()

let drive ?obs ?(on_crash = fun _ _ -> ()) ~crash_at (compiled : Compiled.t)
    machine =
  let rec go crash_at =
    let at, rest =
      match crash_at with [] -> (None, []) | at :: rest -> (Some at, rest)
    in
    match Executor.run ?crash_at_instr:at machine with
    | Executor.Finished r -> r
    | Executor.Crashed crash ->
      let image = crash.Executor.image in
      on_crash crash (apply_recovery_blocks_per_core compiled image);
      ignore (Executor.resume ~compiled ~image machine);
      go rest
  in
  if Executor.program machine != compiled.Compiled.program then
    invalid_arg "Recovery.drive: the machine does not run compiled's program";
  Executor.rewind ?obs machine;
  go crash_at
