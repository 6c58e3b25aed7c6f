(* Checkpoint pruning (Figure 3) and checkpoint motion / LICM (Figure 4):
   the passes fire where they should, stay silent where they must, and
   never break crash recovery. *)

open Capri
open Helpers
module Opt = Capri_compiler.Options
module Prune = Capri_compiler.Prune

(* The paper's Figure 3, reconstructed:

     region 0:  r1 = load, r3 = load            (r1, r3 checkpointed)
     region 1:  if r1 > 0 then r2 = r3
                           else r2 = r1 + r3    (r2 checkpointed twice)
     region 2:  store r2                        (r2 dies here)

   The two r2 checkpoints are reconstructible from the slots of r1 and
   r3 by replaying region 1's slice, so pruning removes them and attaches
   a recovery block to region 2's boundary. *)
let figure3_program () =
  let b = Builder.create () in
  let data = Builder.alloc_init b [| 5; 11; 0 |] in
  let f = Builder.func b "main" in
  let left = Builder.block f "left" in
  let right = Builder.block f "right" in
  let mid = Builder.block f "mid" in
  Builder.li f (r 9) data;
  Builder.load f (r 1) ~base:(r 9) ~off:0 ();
  Builder.load f (r 3) ~base:(r 9) ~off:1 ();
  Builder.fence f;  (* region 1 starts *)
  Builder.binop f Instr.Lt (r 4) (im 0) (rg 1);
  Builder.branch f (rg 4) left right;
  Builder.switch f left;
  Builder.mv f (r 2) (r 3);
  Builder.jump f mid;
  Builder.switch f right;
  Builder.add f (r 2) (rg 1) (rg 3);
  Builder.jump f mid;
  Builder.switch f mid;
  Builder.fence f;  (* region 2 starts *)
  Builder.store f ~base:(r 9) ~off:2 (rg 2);
  Builder.out f (rg 2);
  Builder.halt f;
  (Builder.finish b ~main:"main", data)

let prune_options = { Opt.up_to_prune with Opt.unroll = false }

let test_prune_fires_figure3 () =
  let program, _ = figure3_program () in
  let compiled = Pipeline.compile prune_options program in
  Alcotest.(check bool) "pruned some" true
    (compiled.Compiled.prune_report.Prune.ckpts_pruned > 0);
  Alcotest.(check bool) "recovery blocks exist" true
    (compiled.Compiled.prune_report.Prune.recovery_blocks > 0);
  (* no Ckpt of r2 remains *)
  List.iter
    (fun fn ->
      List.iter
        (fun (bl : Block.t) ->
          List.iter
            (fun i ->
              match (i : Instr.t) with
              | Instr.Ckpt { reg; _ } when Reg.to_int reg = 2 ->
                Alcotest.fail "r2 checkpoint survived pruning"
              | _ -> ())
            bl.Block.instrs)
        (Func.blocks fn))
    compiled.Compiled.program.Program.funcs

let test_pruned_recovery_block_recomputes () =
  let program, _ = figure3_program () in
  let compiled = Pipeline.compile prune_options program in
  (* Find the recovery entry and execute it through the public recovery
     machinery via a crash inside region 2. *)
  let reference = Verify.reference compiled in
  Alcotest.(check bool) "recovery table non-empty" true
    (Hashtbl.length compiled.Compiled.recovery > 0);
  (* crash at every instruction: region 2 crashes exercise the block *)
  let total = reference.Executor.instrs in
  for at = 1 to total - 1 do
    let result, _, _ =
      Verify.run_with_crashes ~crash_at:[ at ] compiled
        (Recovery.machine compiled)
    in
    match Verify.check_equivalence ~reference ~candidate:result with
    | Ok () -> ()
    | Error e -> Alcotest.failf "crash at %d: %s" at e
  done

let test_prune_respects_liveness () =
  (* If r2 stays live past region 2, pruning must not fire. *)
  let b = Builder.create () in
  let data = Builder.alloc_init b [| 5; 11; 0; 0 |] in
  let f = Builder.func b "main" in
  let left = Builder.block f "left" in
  let right = Builder.block f "right" in
  let mid = Builder.block f "mid" in
  Builder.li f (r 9) data;
  Builder.load f (r 1) ~base:(r 9) ~off:0 ();
  Builder.load f (r 3) ~base:(r 9) ~off:1 ();
  Builder.fence f;
  Builder.binop f Instr.Lt (r 4) (im 0) (rg 1);
  Builder.branch f (rg 4) left right;
  Builder.switch f left;
  Builder.mv f (r 2) (r 3);
  Builder.jump f mid;
  Builder.switch f right;
  Builder.add f (r 2) (rg 1) (rg 3);
  Builder.jump f mid;
  Builder.switch f mid;
  Builder.fence f;
  Builder.store f ~base:(r 9) ~off:2 (rg 2);
  Builder.fence f;  (* r2 survives into a third region *)
  Builder.store f ~base:(r 9) ~off:3 (rg 2);
  Builder.out f (rg 2);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  let compiled = Pipeline.compile prune_options program in
  Alcotest.(check int) "nothing pruned" 0
    compiled.Compiled.prune_report.Prune.ckpts_pruned

let test_prune_rejects_load_slices () =
  (* r2 computed THROUGH a load: not reconstructible, not pruned. *)
  let b = Builder.create () in
  let data = Builder.alloc_init b [| 5; 11; 0 |] in
  let f = Builder.func b "main" in
  Builder.li f (r 9) data;
  Builder.load f (r 1) ~base:(r 9) ~off:0 ();
  Builder.fence f;
  Builder.load f (r 2) ~base:(r 9) ~off:1 ();  (* load inside region 1 *)
  Builder.add f (r 2) (rg 2) (rg 1);
  Builder.fence f;
  Builder.store f ~base:(r 9) ~off:2 (rg 2);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  let compiled = Pipeline.compile prune_options program in
  Alcotest.(check int) "load-tainted slice kept" 0
    compiled.Compiled.prune_report.Prune.ckpts_pruned

(* ---------------- LICM / checkpoint motion ---------------- *)

let licm_options = Opt.all_opts

let test_licm_reduces_unrolled_induction () =
  (* An unknown-trip loop gets unrolled; without motion, the induction
     register is checkpointed once per copy, with motion once per region
     instance (the paper's "3x fewer checkpoints for r0"). *)
  let build () =
    let b = Builder.create () in
    let arr = Builder.alloc_init b (Array.init 64 (fun i -> i)) in
    let bound = Builder.alloc_init b [| 48 |] in
    let f = Builder.func b "main" in
    let header = Builder.block f "header" in
    let body = Builder.block f "body" in
    let exit_ = Builder.block f "exit" in
    Builder.li f (r 1) 0;
    Builder.li f (r 8) bound;
    Builder.load f (r 9) ~base:(r 8) ();
    Builder.li f (r 7) arr;
    Builder.jump f header;
    Builder.switch f header;
    Builder.binop f Instr.Lt (r 2) (rg 1) (rg 9);
    Builder.branch f (rg 2) body exit_;
    Builder.switch f body;
    Builder.add f (r 4) (rg 7) (rg 1);
    Builder.store f ~base:(r 4) (rg 1);
    Builder.add f (r 1) (rg 1) (im 1);
    Builder.jump f header;
    Builder.switch f exit_;
    Builder.out f (rg 1);
    Builder.halt f;
    Builder.finish b ~main:"main"
  in
  let without = Pipeline.compile Opt.up_to_prune (build ()) in
  let with_licm = Pipeline.compile licm_options (build ()) in
  let d c = (run c).Executor.ckpt_stores in
  let base = d without and moved = d with_licm in
  Alcotest.(check bool)
    (Printf.sprintf "dynamic checkpoints fall (%d -> %d)" base moved)
    true
    (moved * 2 <= base)

let test_licm_preserves_results () =
  List.iter
    (fun (name, program, threads) ->
      let without = Pipeline.compile Opt.up_to_prune program in
      let with_licm = Pipeline.compile licm_options program in
      let r1 = run ~threads without in
      let r2 = run ~threads with_licm in
      Alcotest.(check bool) (name ^ " memory") true
        (Memory.equal ~from:Builder.data_base r1.Executor.memory
           r2.Executor.memory);
      Alcotest.(check bool) (name ^ " outputs") true
        (r1.Executor.outputs = r2.Executor.outputs))
    (let p1, _ = sum_program ~n:40 () in
     let p2 = fib_program ~n:8 () in
     let p3, _, _ = mixed_program ~n:12 () in
     [
       ("sum", p1, [ Executor.main_thread p1 ]);
       ("fib", p2, [ Executor.main_thread p2 ]);
       ("mixed", p3, [ Executor.main_thread p3 ]);
     ])

let test_licm_crash_recovery () =
  (* Motion must not break the slot invariant: crash everywhere. *)
  let program, _ = sum_program ~n:25 () in
  let compiled = Pipeline.compile licm_options program in
  (match crash_sweep ~stride:3 compiled with
   | Ok _ -> ()
   | Error f -> Alcotest.failf "crash at %s: %s"
                  (String.concat ","
                     (List.map string_of_int f.Verify.crash_at))
                  f.Verify.reason);
  let program2, _, _ = mixed_program ~n:10 () in
  let compiled2 = Pipeline.compile licm_options program2 in
  match crash_sweep ~stride:7 compiled2 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "mixed crash at %s: %s"
                 (String.concat ","
                    (List.map string_of_int f.Verify.crash_at))
                 f.Verify.reason

let test_dedup_removes_shadowed () =
  (* Two checkpoints of the same register in one straight-line region:
     only the last matters. *)
  let b = Builder.create () in
  let data = Builder.alloc_init b [| 1; 2 |] in
  let f = Builder.func b "main" in
  Builder.li f (r 9) data;
  Builder.load f (r 1) ~base:(r 9) ~off:0 ();
  Builder.store f ~base:(r 9) ~off:1 (rg 1);
  Builder.load f (r 1) ~base:(r 9) ~off:1 ();  (* redefinition *)
  Builder.fence f;
  Builder.out f (rg 1);  (* r1 live-in to region 2 *)
  Builder.store f ~base:(r 9) ~off:0 (rg 1);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  let compiled = Pipeline.compile Opt.all_opts program in
  (* count Ckpt r1 occurrences in the first region's blocks *)
  let count = ref 0 in
  List.iter
    (fun fn ->
      List.iter
        (fun (bl : Block.t) ->
          List.iter
            (fun i ->
              match (i : Instr.t) with
              | Instr.Ckpt { reg; _ } when Reg.to_int reg = 1 -> incr count
              | _ -> ())
            bl.Block.instrs)
        (Func.blocks fn))
    compiled.Compiled.program.Program.funcs;
  Alcotest.(check bool) "at most one ckpt of r1 per path" true (!count <= 2);
  (* and the program still recovers from anywhere *)
  match crash_sweep ~stride:1 compiled with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "crash at %s: %s"
                 (String.concat "," (List.map string_of_int f.Verify.crash_at))
                 f.Verify.reason

let suite =
  [
    Alcotest.test_case "pruning fires on Figure 3" `Quick
      test_prune_fires_figure3;
    Alcotest.test_case "recovery blocks recompute pruned slots" `Quick
      test_pruned_recovery_block_recomputes;
    Alcotest.test_case "pruning respects liveness" `Quick
      test_prune_respects_liveness;
    Alcotest.test_case "pruning rejects load slices" `Quick
      test_prune_rejects_load_slices;
    Alcotest.test_case "motion shrinks unrolled inductions" `Quick
      test_licm_reduces_unrolled_induction;
    Alcotest.test_case "motion preserves results" `Quick
      test_licm_preserves_results;
    Alcotest.test_case "motion preserves crash recovery" `Quick
      test_licm_crash_recovery;
    Alcotest.test_case "dedup removes shadowed checkpoints" `Quick
      test_dedup_removes_shadowed;
  ]
