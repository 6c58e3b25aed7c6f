(* End-to-end crash/recovery scenarios beyond the generic sweeps:
   crash timing edge cases, recovery-block execution, resumed sessions,
   and multithreaded recovery. *)

open Capri
open Helpers
module W = Capri_workloads

let exhaustive_sweep name compiled threads =
  let reference = Verify.reference ~threads compiled in
  for at = 1 to reference.Executor.instrs - 1 do
    let result, _, _ =
      Verify.run_with_crashes ~crash_at:[ at ] compiled
        (Recovery.machine ~threads compiled)
    in
    match Verify.check_equivalence ~reference ~candidate:result with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: crash at %d: %s" name at e
  done

let test_crash_at_first_instruction () =
  let program, _ = sum_program ~n:5 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  let result, recoveries, _ =
    Verify.run_with_crashes ~crash_at:[ 1 ] compiled
      (Recovery.machine compiled)
  in
  Alcotest.(check int) "one recovery" 1 recoveries;
  match Verify.check_equivalence ~reference ~candidate:result with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_crash_after_halt_is_noop () =
  let program, _ = sum_program ~n:5 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  (* Crash point beyond the program: the run simply finishes. *)
  let result, recoveries, _ =
    Verify.run_with_crashes
      ~crash_at:[ reference.Executor.instrs * 2 ]
      compiled (Recovery.machine compiled)
  in
  Alcotest.(check int) "no recovery" 0 recoveries;
  match Verify.check_equivalence ~reference ~candidate:result with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_exhaustive_small_programs () =
  let p1, _ = sum_program ~n:6 () in
  exhaustive_sweep "sum" (compile p1) [ Executor.main_thread p1 ];
  let p2 = fib_program ~n:5 () in
  exhaustive_sweep "fib" (compile p2) [ Executor.main_thread p2 ];
  let p3, _, _ = mixed_program ~n:5 () in
  exhaustive_sweep "mixed" (compile p3) [ Executor.main_thread p3 ]

let test_exhaustive_small_threshold () =
  (* Small thresholds mean many regions and commits: different crash
     surface. *)
  let program, _, _ = mixed_program ~n:6 () in
  let options =
    Capri_compiler.Options.with_threshold 8 Capri_compiler.Options.default
  in
  let compiled = Pipeline.compile options program in
  exhaustive_sweep "mixed@8" compiled [ Executor.main_thread program ]

let test_triple_crash () =
  let program, _ = sum_program ~n:20 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  let n = reference.Executor.instrs in
  let result, recoveries, _ =
    Verify.run_with_crashes ~crash_at:[ n / 4; n / 4; n / 4 ] compiled
      (Recovery.machine compiled)
  in
  Alcotest.(check int) "three recoveries" 3 recoveries;
  match Verify.check_equivalence ~reference ~candidate:result with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_multithreaded_recovery () =
  (* Barriered multithreaded kernel: all cores lose power at once and all
     resume from their own boundaries. *)
  let k = W.Splash3.ocean ~threads:4 ~scale:2 () in
  let compiled = compile k.W.Kernel.program in
  let reference = Verify.reference ~threads:k.W.Kernel.threads compiled in
  let n = reference.Executor.instrs in
  List.iter
    (fun at ->
      let result, _, _ =
        Verify.run_with_crashes ~crash_at:[ at ] compiled
          (Recovery.machine ~threads:k.W.Kernel.threads compiled)
      in
      match Verify.check_equivalence ~reference ~candidate:result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "crash at %d: %s" at e)
    [ 1; n / 7; n / 3; n / 2; (2 * n) / 3; n - 2 ]

let test_resume_session_register_state () =
  (* After recovery, a register live at the resume boundary holds the
     value the slot array recorded (not the pre-crash garbage). *)
  let program, cell = sum_program ~n:40 () in
  let compiled = compile program in
  let crashes = ref 0 in
  let r =
    Recovery.drive
      ~on_crash:(fun _ _ -> incr crashes)
      ~crash_at:[ 60 ] compiled
      (Recovery.machine ~mode:Persist.Capri compiled)
  in
  Alcotest.(check int) "one crash" 1 !crashes;
  (* The resumed run must complete with the correct final value. *)
  Alcotest.(check int) "final cell" 780 (Memory.read r.Executor.memory cell)

let test_never_started_core_restarts () =
  (* Crash before a worker reaches its first boundary: it restarts from
     scratch with its original arguments (durable initial context). *)
  let k = W.Splash3.raytrace ~threads:2 ~scale:1 () in
  let compiled = compile k.W.Kernel.program in
  let reference = Verify.reference ~threads:k.W.Kernel.threads compiled in
  let result, _, _ =
    Verify.run_with_crashes ~crash_at:[ 1 ] compiled
      (Recovery.machine ~threads:k.W.Kernel.threads compiled)
  in
  match Verify.check_equivalence ~reference ~candidate:result with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_recovery_block_exhaustive () =
  (* A pruned program crash-swept at every dynamic instruction under a
     couple of thresholds. *)
  List.iter
    (fun threshold ->
      let b = Builder.create () in
      let data = Builder.alloc_init b [| 9; 4; 0; 0 |] in
      let f = Builder.func b "main" in
      let left = Builder.block f "left" in
      let right = Builder.block f "right" in
      let mid = Builder.block f "mid" in
      Builder.li f (r 9) data;
      Builder.load f (r 1) ~base:(r 9) ~off:0 ();
      Builder.load f (r 3) ~base:(r 9) ~off:1 ();
      Builder.fence f;
      Builder.binop f Instr.Lt (r 4) (im 6) (rg 1);
      Builder.branch f (rg 4) left right;
      Builder.switch f left;
      Builder.mul f (r 2) (rg 3) (rg 3);
      Builder.jump f mid;
      Builder.switch f right;
      Builder.sub f (r 2) (rg 1) (rg 3);
      Builder.jump f mid;
      Builder.switch f mid;
      Builder.fence f;
      Builder.store f ~base:(r 9) ~off:2 (rg 2);
      Builder.out f (rg 2);
      Builder.halt f;
      let program = Builder.finish b ~main:"main" in
      let options =
        Capri_compiler.Options.with_threshold threshold
          { Capri_compiler.Options.up_to_prune with
            Capri_compiler.Options.unroll = false }
      in
      let compiled = Pipeline.compile options program in
      Alcotest.(check bool) "pruned" true
        (compiled.Compiled.prune_report.Capri_compiler.Prune.ckpts_pruned > 0);
      exhaustive_sweep
        (Printf.sprintf "figure3@%d" threshold)
        compiled
        [ Executor.main_thread program ])
    [ 16; 256 ]

let test_crash_at_instruction_zero () =
  (* Power failure before a single instruction executes: recovery must
     restart from the entry boundary with the loader's data image
     intact. Exercised in every crash-recoverable mode — Redo_nowb once
     lost the initial image here because the loader seeded NVM through
     the writeback path that mode deliberately drops. *)
  let program, cell = sum_program ~n:7 () in
  let compiled = compile program in
  List.iter
    (fun mode ->
      let reference = Verify.reference ~mode compiled in
      let result, recoveries, _ =
        Verify.run_with_crashes ~crash_at:[ 0 ] compiled
          (Recovery.machine ~mode compiled)
      in
      Alcotest.(check int) "one recovery" 1 recoveries;
      (match Verify.check_equivalence ~reference ~candidate:result with
       | Ok () -> ()
       | Error e ->
         Alcotest.failf "mode %s: %s" (Persist.mode_name mode) e);
      Alcotest.(check int) "final cell" 21
        (Memory.read result.Executor.memory cell))
    (List.filter Persist.crash_recoverable Persist.all_modes)

let test_two_crashes_same_region () =
  (* The second crash lands one instruction into the replay of the
     region the first crash interrupted: the same region is rolled back
     and re-entered twice. Swept across the whole program so every
     region gets re-interrupted. *)
  let program, _ = sum_program ~n:10 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  let n = reference.Executor.instrs in
  let at = ref 1 in
  while !at < n do
    List.iter
      (fun second ->
        let result, recoveries, _ =
          Verify.run_with_crashes ~crash_at:[ !at; second ] compiled
            (Recovery.machine compiled)
        in
        Alcotest.(check int)
          (Printf.sprintf "two recoveries @%d+%d" !at second)
          2 recoveries;
        match Verify.check_equivalence ~reference ~candidate:result with
        | Ok () -> ()
        | Error e -> Alcotest.failf "crash [%d;%d]: %s" !at second e)
      [ 1; 3 ];
    at := !at + 5
  done

(* Sum of 3i over i < n into the first of two cells. 3i is computed in
   a region of its own (the fence opens it) and stored to the second
   cell, so the region commits and the next one, which adds 3i to the
   sum, is a resume point. The pruning pass drops the checkpoint of
   r6 = 3i: a crash in the adding region rebuilds r6's slot with a
   recovery block from the slots of r1 = i and r7 = 3. *)
let pruned_sum_program ~n =
  let b = Builder.create () in
  let cell = Builder.alloc b ~words:2 in
  let f = Builder.func b "main" in
  let loop = Builder.block f "loop" in
  let body = Builder.block f "body" in
  let add = Builder.block f "add" in
  let exit_ = Builder.block f "exit" in
  Builder.li f (r 1) 0;
  Builder.li f (r 2) 0;
  Builder.li f (r 3) cell;
  Builder.li f (r 7) 3;
  Builder.jump f loop;
  Builder.switch f loop;
  Builder.binop f Instr.Lt (r 4) (rg 1) (im n);
  Builder.branch f (rg 4) body exit_;
  Builder.switch f body;
  Builder.fence f;
  Builder.mul f (r 6) (rg 1) (rg 7);
  Builder.store f ~base:(r 3) ~off:1 (rg 6);
  Builder.jump f add;
  Builder.switch f add;
  Builder.fence f;
  Builder.add f (r 2) (rg 2) (rg 6);
  Builder.store f ~base:(r 3) (rg 2);
  Builder.add f (r 1) (rg 1) (im 1);
  Builder.jump f loop;
  Builder.switch f exit_;
  Builder.load f (r 5) ~base:(r 3) ();
  Builder.out f (rg 5);
  Builder.halt f;
  (Builder.finish b ~main:"main", cell)

let test_crash_inside_recovery_replay () =
  (* Crash, run the software recovery blocks, resume — and crash again
     almost immediately, before the replayed region can reach its next
     boundary. The second recovery must rebuild from the same resume
     record without double-applying anything. The driver's hook runs
     between each failure and its resumed session, after the recovery
     blocks: both crashes resume in the adding region, and the hook sees
     its block ran and rebuilt r6's slot (never checkpointed, so 0
     unless the block wrote it) as 3i. *)
  let program, cell = pruned_sum_program ~n:30 in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  let slot reg (c : Executor.crash) =
    c.Executor.image.Persist.slots.(0).(Reg.to_int (r reg))
  in
  let crashes = ref [] in
  let on_crash (c : Executor.crash) per_core =
    (match c.Executor.image.Persist.resume.(0) with
     | Persist.Resume { boundary; _ } ->
       Alcotest.(check int) "the resume boundary has one recovery block" 1
         (List.length (Compiled.find_recovery compiled ~boundary))
     | Persist.Done | Persist.Never_started ->
       Alcotest.fail "core 0 has no region to resume");
    Alcotest.(check int) "the recovery block ran" 1 per_core.(0);
    Alcotest.(check bool) "i > 0" true (slot 1 c > 0);
    Alcotest.(check int) "r6's slot rebuilt as 3i" (3 * slot 1 c) (slot 6 c);
    crashes := c :: !crashes
  in
  let r =
    Recovery.drive ~on_crash
      ~crash_at:[ reference.Executor.instrs / 2; 1 ]
      compiled (Recovery.machine compiled)
  in
  match List.rev !crashes with
  | [ first; second ] ->
    Alcotest.(check int) "second crash one instruction into the replay" 1
      second.Executor.at_instr;
    Alcotest.(check int) "final sum" 1305
      (Memory.read r.Executor.memory cell);
    let candidate =
      {
        r with
        Executor.outputs =
          Array.mapi
            (fun i o ->
              first.Executor.outputs_before.(i)
              @ second.Executor.outputs_before.(i) @ o)
            r.Executor.outputs;
      }
    in
    (match Verify.check_equivalence ~reference ~candidate with
     | Ok () -> ()
     | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "expected two crashes"

let test_crash_after_core_halts () =
  (* Multi-core: crash while one core has already finished and others
     are still running. The finished core's architected context is
     durable (the halt path stages the full register file with its
     final region), so the resumed session reports its true final
     registers instead of a zeroed file. *)
  let prog = Capri_workloads.Gen.generate ~cores:3 8 in
  let program, threads = Capri_workloads.Gen.lower prog in
  let compiled = compile program in
  let reference = Verify.reference ~threads compiled in
  let n = reference.Executor.instrs in
  List.iter
    (fun mode ->
      (* late crash points: some land after the short workers halt *)
      List.iter
        (fun at ->
          let result, _, _ =
            Verify.run_with_crashes ~crash_at:[ at ] compiled
              (Recovery.machine ~mode ~threads compiled)
          in
          match Verify.check_equivalence ~reference ~candidate:result with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "mode %s, crash at %d: %s"
              (Persist.mode_name mode)
              at e)
        [ (3 * n) / 4; n - 10; n - 2 ])
    (List.filter Persist.crash_recoverable Persist.all_modes)

let test_resume_refuses_another_program () =
  (* A crash image's resume boundaries are region ids of the compiled
     program: a session started from the uncompiled source cannot be
     resumed under it, nor driven (a crash-free drive would otherwise
     run the source silently). *)
  let source, _ = sum_program ~n:40 () in
  let compiled = compile source in
  let session =
    Executor.start ~program:source ~threads:[ Executor.main_thread source ] ()
  in
  (match Recovery.drive ~crash_at:[] compiled session with
   | _ -> Alcotest.fail "drove a machine of another program"
   | exception Invalid_argument _ -> ());
  match Executor.run ~crash_at_instr:60 session with
  | Executor.Finished _ -> Alcotest.fail "expected a crash"
  | Executor.Crashed c -> (
    match Executor.resume ~compiled ~image:c.Executor.image session with
    | _ -> Alcotest.fail "resumed a session of another program"
    | exception Invalid_argument _ -> ())

let test_resume_consumes_the_crash () =
  (* A resume restarts the crashed session's own machine, so it needs a
     crash to restart from, and each crash is restarted once. *)
  let source, _ = sum_program ~n:40 () in
  let compiled = compile source in
  let program = compiled.Compiled.program in
  let start () =
    Executor.start ~program ~threads:[ Executor.main_thread program ] ()
  in
  let refused what session image =
    match Executor.resume ~compiled ~image session with
    | _ -> Alcotest.failf "resumed %s" what
    | exception Invalid_argument _ -> ()
  in
  let session = start () in
  match Executor.run ~crash_at_instr:60 session with
  | Executor.Finished _ -> Alcotest.fail "expected a crash"
  | Executor.Crashed c -> (
    let image = c.Executor.image in
    refused "a session that never ran" (start ()) image;
    let resumed = Executor.resume ~compiled ~image session in
    Alcotest.(check bool) "the crashed session restarts" true
      (resumed == session);
    refused "one crash twice" session image;
    match Executor.run resumed with
    | Executor.Crashed _ -> Alcotest.fail "unexpected crash"
    | Executor.Finished _ -> refused "a finished session" resumed image)

let suite =
  [
    Alcotest.test_case "crash at instruction 1" `Quick
      test_crash_at_first_instruction;
    Alcotest.test_case "crash at instruction 0" `Quick
      test_crash_at_instruction_zero;
    Alcotest.test_case "two crashes in the same region" `Quick
      test_two_crashes_same_region;
    Alcotest.test_case "crash inside recovery replay" `Quick
      test_crash_inside_recovery_replay;
    Alcotest.test_case "crash after a core halts" `Quick
      test_crash_after_core_halts;
    Alcotest.test_case "crash beyond halt" `Quick test_crash_after_halt_is_noop;
    Alcotest.test_case "exhaustive sweeps (small programs)" `Quick
      test_exhaustive_small_programs;
    Alcotest.test_case "exhaustive sweep, threshold 8" `Quick
      test_exhaustive_small_threshold;
    Alcotest.test_case "triple crash" `Quick test_triple_crash;
    Alcotest.test_case "multithreaded recovery" `Quick
      test_multithreaded_recovery;
    Alcotest.test_case "resume restores live registers" `Quick
      test_resume_session_register_state;
    Alcotest.test_case "never-started cores restart" `Quick
      test_never_started_core_restarts;
    Alcotest.test_case "recovery blocks, exhaustive" `Quick
      test_recovery_block_exhaustive;
    Alcotest.test_case "resume refuses another program" `Quick
      test_resume_refuses_another_program;
    Alcotest.test_case "resume refuses a session without a crash" `Quick
      test_resume_consumes_the_crash;
  ]
