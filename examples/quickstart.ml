(* Quickstart: build a tiny program, compile it with Capri, run it under
   the architecture model, crash it halfway, recover, and check that the
   result is indistinguishable from the crash-free run.

     dune exec examples/quickstart.exe
*)

open Capri

let r = Reg.of_int

let build_program () =
  let b = Builder.create () in
  (* One memory cell accumulates a running total of 1..100. *)
  let cell = Builder.alloc b ~words:1 in
  let f = Builder.func b "main" in
  let loop = Builder.block f "loop" in
  let body = Builder.block f "body" in
  let done_ = Builder.block f "done" in
  Builder.li f (r 1) 1;  (* i *)
  Builder.li f (r 2) cell;
  Builder.jump f loop;
  Builder.switch f loop;
  Builder.binop f Instr.Le (r 3) (Builder.reg (r 1)) (Builder.imm 100);
  Builder.branch f (Builder.reg (r 3)) body done_;
  Builder.switch f body;
  Builder.load f (r 4) ~base:(r 2) ();
  Builder.add f (r 4) (Builder.reg (r 4)) (Builder.reg (r 1));
  Builder.store f ~base:(r 2) (Builder.reg (r 4));
  Builder.add f (r 1) (Builder.reg (r 1)) (Builder.imm 1);
  Builder.jump f loop;
  Builder.switch f done_;
  Builder.load f (r 0) ~base:(r 2) ();
  Builder.out f (Builder.reg (r 0));
  Builder.halt f;
  (Builder.finish b ~main:"main", cell)

let () =
  let program, cell = build_program () in

  (* 1. The volatile baseline: no persistence at all. *)
  let baseline = run_volatile program in
  Printf.printf "baseline: sum = %d in %d cycles\n"
    (List.hd baseline.Executor.outputs.(0))
    baseline.Executor.cycles;

  (* 2. Compile with the Capri pipeline (region formation, checkpointing,
        speculative unrolling, pruning, checkpoint motion). *)
  let compiled = compile program in
  Format.printf "compiler: %a@." Compiled.pp_summary compiled;

  (* 3. Run under whole-system persistence. *)
  let result = run compiled in
  Printf.printf "capri:    sum = %d in %d cycles (overhead %.1f%%)\n"
    (List.hd result.Executor.outputs.(0))
    result.Executor.cycles
    (100.0 *. (overhead ~baseline result -. 1.0));

  (* 4. Pull the plug mid-run, recover, resume — same answer. *)
  let crashed, recoveries, _ =
    Verify.run_with_crashes ~crash_at:[ result.Executor.instrs / 2 ] compiled
      (Recovery.machine compiled)
  in
  Printf.printf "crash:    sum after recovery = %d (recoveries: %d)\n"
    (List.hd crashed.Executor.outputs.(0))
    recoveries;
  Printf.printf "memory cell %#x survived with value %d\n" cell
    (Memory.read crashed.Executor.memory cell);
  (match Verify.check_equivalence ~reference:result ~candidate:crashed with
   | Ok () -> print_endline "equivalence: crash-free and recovered runs match"
   | Error e -> Printf.printf "equivalence FAILED: %s\n" e);

  (* 5. The whole-point summary: every crash point recovers. *)
  match crash_sweep ~stride:(result.Executor.instrs / 20) compiled with
  | Ok report ->
    Printf.printf "crash sweep: %d crash points, all recovered correctly\n"
      report.Verify.crash_points
  | Error f ->
    Printf.printf "crash sweep FAILED at %s: %s\n"
      (String.concat "," (List.map string_of_int f.Verify.crash_at))
      f.Verify.reason
