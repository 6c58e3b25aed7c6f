(* perf-smoke: the compiled execution tier must be a pure speed change.
   Run the dispatch microbenchmark shapes at tiny scale — plus a small
   suite kernel and a multi-core workload-generator program — under both
   engines across all five persistence modes and require identical
   results: cycles, instruction/store accounting, outputs, acks, final
   registers, persist and hierarchy statistics, and final memory.

   The whole matrix is evaluated twice, through a 1-domain and a
   4-domain `Capri_util.Pool`, and the two result lists must be
   identical: the pool is a pure scheduling change even on a box where
   `Domain.recommended_domain_count ()` is 1 (domains time-slice one
   core; determinism is what the smoke can and does verify there).
   Runs as part of `dune runtest` (and as `make perfsmoke`). *)

open Capri
module W = Capri_workloads
module Pool = Capri_util.Pool

(* Everything observable about a finished run, as one comparable value
   (memory via its sorted line dump). *)
let fingerprint (r : Executor.result) =
  let mem = ref [] in
  Memory.iter_lines r.Executor.memory (fun l data ->
      mem := (l, Array.to_list data) :: !mem);
  ( ( r.Executor.cycles, r.Executor.instrs, r.Executor.payload_instrs,
      r.Executor.stores, r.Executor.ckpt_stores, r.Executor.boundaries ),
    ( r.Executor.outputs, r.Executor.acks, r.Executor.final_regs,
      r.Executor.stale_reads ),
    (r.Executor.persist_stats, r.Executor.hier_stats),
    List.sort compare !mem )

(* One task = one (shape, mode): fingerprint under both engines. *)
let run_pair (name, mode, program, threads) =
  let run engine =
    let session = Executor.start ~mode ~engine ~program ~threads () in
    match Executor.run session with
    | Executor.Finished r -> fingerprint r
    | Executor.Crashed _ -> assert false
  in
  ( name, Persist.mode_name mode,
    run Executor.Interp, run Executor.Compiled )

let () =
  let tasks = ref [] in
  let add name mode program threads =
    tasks := (name, mode, program, threads) :: !tasks
  in
  let dispatch = Capri_bench.Micro.dispatch_programs ~trips:64 in
  List.iter
    (fun (name, program) ->
      let p = (compile program).Compiled.program in
      List.iter
        (fun mode ->
          add ("dispatch/" ^ name) mode p [ Executor.main_thread p ])
        Persist.all_modes)
    dispatch;
  (* one real kernel, single-core *)
  let k = W.Suite.by_name ~scale:1 "505.mcf_r" in
  let kp = (compile k.W.Kernel.program).Compiled.program in
  List.iter
    (fun mode -> add "kernel/505.mcf_r" mode kp k.W.Kernel.threads)
    Persist.all_modes;
  (* one generated multi-core program, Capri mode *)
  let prog = W.Gen.generate ~cores:2 7 in
  let gp, gthreads = W.Gen.lower prog in
  let gp = (compile gp).Compiled.program in
  add "gen/seed7x2" Persist.Capri gp gthreads;
  let tasks = List.rev !tasks in
  let eval jobs =
    Pool.with_pool ~jobs (fun pool -> Pool.map_list pool run_pair tasks)
  in
  let seq = eval 1 in
  let par = eval 4 in
  if seq <> par then begin
    prerr_endline "perf-smoke: --jobs 4 results differ from --jobs 1";
    exit 1
  end;
  let failures = ref 0 in
  List.iter
    (fun (name, mode, a, b) ->
      if a <> b then begin
        incr failures;
        Printf.eprintf "perf-smoke: %s [%s]: compiled differs from interp\n"
          name mode
      end)
    seq;
  if !failures > 0 then begin
    Printf.eprintf "perf-smoke: %d mismatch(es)\n" !failures;
    exit 1
  end;
  print_endline
    "perf-smoke: compiled matches interp on all shapes and modes; jobs=4 \
     matches jobs=1"
