(* perf-smoke: burst scheduling and block fusion must be a pure speed
   change. Run the dispatch microbenchmark shapes at tiny scale — plus a
   small suite kernel and a multi-core workload-generator program —
   under `Executor.run` and its one-instruction-per-pick reference,
   `Executor.run_reference`, across all five persistence modes and
   require identical results: cycles, instruction/store accounting,
   outputs, acks, final registers, persist and hierarchy statistics, and
   final memory.

   The whole matrix is evaluated twice, through a 1-domain and a
   4-domain `Capri_util.Pool`, and the two result lists must be
   identical: the pool is a pure scheduling change even on a box where
   `Domain.recommended_domain_count ()` is 1 (domains time-slice one
   core; determinism is what the smoke can and does verify there).
   It then gates allocation: minor words per simulated instruction
   inside `Executor.run`, for each dispatch shape in Volatile mode (the
   source program), Capri mode (the compiled one), Capri mode traced
   (under the tracer-only bundle the crash campaigns observe their
   reference runs with) and Capri and Naive_sync mode profiled (under
   the full bundle `Obs.create ()`: registry, tracer and region
   profiler), must stay at or under a committed ceiling. Last, it gates
   the compile path: minor words per [Pipeline.compile] over fig8's
   matrix and over the kv-hot benchmark's ten stores, each under a
   committed ceiling. Runs as part of `dune runtest` (and as
   `make perfsmoke`). *)

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

(* One task = one (shape, mode): fingerprint under both schedulers. *)
let run_pair (name, mode, program, threads) =
  let fingerprint_of
      (run : ?crash_at_instr:int -> ?max_steps:int -> Executor.session ->
       Executor.outcome) =
    match run (Executor.start ~mode ~program ~threads ()) with
    | Executor.Finished r -> fingerprint r
    | Executor.Crashed _ -> assert false
  in
  ( name, Persist.mode_name mode,
    fingerprint_of Executor.run_reference, fingerprint_of Executor.run )

module Obs = Capri_obs.Obs

(* Minor words [Executor.run] allocates over a whole run, and the
   instructions it simulates; the run records into a fresh [obs ()]. *)
let run_words ~obs mode program =
  let s =
    Executor.start ~obs:(obs ()) ~mode ~program
      ~threads:[ Executor.main_thread program ] ()
  in
  let w0 = Gc.minor_words () in
  let outcome = Executor.run s in
  let w1 = Gc.minor_words () in
  match outcome with
  | Executor.Finished r -> (w1 -. w0, r.Executor.instrs)
  | Executor.Crashed _ -> assert false

(* Words per instruction in steady state: the difference between a run
   at [trips] and one at [2 * trips], so the per-run constants (the
   result record, one-time growth of the proxy structures) cancel. *)
let words_per_instr ~obs ~mode ~compiled shape =
  let program trips =
    let p = List.assoc shape (Capri_bench.Micro.dispatch_programs ~trips) in
    if compiled then (compile p).Compiled.program else p
  in
  let trips = 10_000 in
  let wa, ia = run_words ~obs mode (program trips) in
  let wb, ib = run_words ~obs mode (program (2 * trips)) in
  (wb -. wa) /. float_of_int (ib - ia)

(* The gate's columns: a heading, the mode, the bundle the run records
   into and whether it runs the compiled program. *)
let columns =
  let null () = Obs.null in
  let traced () = { Obs.null with Obs.tracer = Capri_obs.Tracer.create () } in
  [
    ("volatile", Persist.Volatile, null, false);
    ("capri", Persist.Capri, null, true);
    ("traced", Persist.Capri, traced, true);
    ("profiled", Persist.Capri, Obs.create, true);
    ("prof-sync", Persist.Naive_sync, Obs.create, true);
  ]

(* Ceilings in words per simulated instruction, one per column, per
   shape. A pure register loop allocates nothing at all, and neither
   recording a trace event nor tallying a region close or its commit
   allocates either. *)
let ceilings =
  [
    ("arith", [ 0.; 0.; 0.; 0.; 0. ]);
    ("branches", [ 0.; 0.; 0.; 0.; 0. ]);
    ("stores", [ 0.; 0.; 0.; 0.; 0. ]);
  ]

let alloc_gate () =
  print_endline "perf-smoke: minor words per instruction in Executor.run";
  Printf.printf "  %-10s" "loop";
  List.iter
    (fun (heading, _, _, _) -> Printf.printf " %10s %10s" heading "ceiling")
    columns;
  print_newline ();
  let over = ref 0 in
  List.iter
    (fun (shape, maxes) ->
      Printf.printf "  %-10s" shape;
      List.iter2
        (fun (_, mode, obs, compiled) max ->
          let w = words_per_instr ~obs ~mode ~compiled shape in
          Printf.printf " %10.4f %10.4f" w max;
          if w > max then incr over)
        columns maxes;
      print_newline ())
    ceilings;
  if !over > 0 then begin
    Printf.eprintf "perf-smoke: %d cell(s) allocate above their ceiling\n"
      !over;
    exit 1
  end

module Svc = Capri_service

(* Minor words per [Pipeline.compile], averaged over (options, source)
   pairs whose sources are built beforehand. *)
let words_per_compile compiles =
  let w0 = Gc.minor_words () in
  List.iter
    (fun (options, source) -> ignore (Pipeline.compile options source))
    compiles;
  (Gc.minor_words () -. w0) /. float_of_int (List.length compiles)

(* fig8's matrix over the 19 kernels at Suite.bench_scale. *)
let fig8_compiles () =
  List.concat_map
    (fun (k : W.Kernel.t) ->
      List.concat_map
        (fun (_, cells) ->
          List.map (fun (_, options, _) -> (options, k.W.Kernel.program)) cells)
        Capri.fig8_matrix)
    (W.Suite.all ~scale:W.Suite.bench_scale ())

(* The kv-hot benchmark's stores, client seeds 10-19. *)
let kv_hot_compiles () =
  List.init 10 (fun i ->
      let cfg = Capri_bench.Micro.kv_hot ~seed:(10 + i) in
      ( cfg.Svc.Server.options,
        (Svc.Server.plan cfg).Svc.Server.kv.Svc.Kvstore.program ))

(* Ceilings in minor words per compile: each row's reading when the
   ceiling was set, plus 5%. *)
let compile_ceilings =
  [ ("fig8 matrix", fig8_compiles, 16_868.);
    ("kv-hot stores", kv_hot_compiles, 162_957.) ]

let compile_gate () =
  print_endline "perf-smoke: minor words per Pipeline.compile";
  Printf.printf "  %-14s %8s %12s %12s\n" "compiles" "count" "words"
    "ceiling";
  let over = ref 0 in
  List.iter
    (fun (name, compiles, ceiling) ->
      let compiles = compiles () in
      let w = words_per_compile compiles in
      Printf.printf "  %-14s %8d %12.1f %12.1f\n" name (List.length compiles) w
        ceiling;
      if w > ceiling then incr over)
    compile_ceilings;
  if !over > 0 then begin
    Printf.eprintf
      "perf-smoke: %d compile row(s) allocate above their ceiling\n" !over;
    exit 1
  end

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
        Printf.eprintf "perf-smoke: %s [%s]: run differs from run_reference\n"
          name mode
      end)
    seq;
  if !failures > 0 then begin
    Printf.eprintf "perf-smoke: %d mismatch(es)\n" !failures;
    exit 1
  end;
  print_endline
    "perf-smoke: run matches run_reference on all shapes and modes; jobs=4 \
     matches jobs=1";
  alloc_gate ();
  compile_gate ()
