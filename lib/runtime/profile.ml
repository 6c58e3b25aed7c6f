(* The observed-run driver behind `capri profile`, obs/smoke and the
   profiling examples.

   One call compiles the program once (for boundary/checkpoint
   provenance) and runs it under a set of persistence modes, each run
   carrying its own enabled metrics registry so the simulations can fan
   out over a domain pool. Per-run series are mode-labelled (Persist
   labels its own counters, the executor labels the hierarchy's, and we
   label the region profiler's here), so folding the registries together
   produces one mode-resolved document with no colliding series. The
   fold uses Metrics.merge_into, which is commutative, and the runs are
   deterministic simulations — the merged snapshot, the Perfetto export
   and the hottest-regions table are therefore byte-identical at any
   [jobs] count.

   Every run profiles its regions, so each mode's region_* series
   describe that mode's run; only the focus mode (default Capri) keeps a
   span tracer, since the trace is a single-run artifact. The
   hottest-regions table reads the focus run's region rows
   ([Executor.result.profile]). *)

module Obs = Capri_obs.Obs
module Metrics = Capri_obs.Metrics
module Tracer = Capri_obs.Tracer
module Profiler = Capri_obs.Profiler
module Options = Capri_compiler.Options
module Pipeline = Capri_compiler.Pipeline
module Compiled = Capri_compiler.Compiled
module Region_map = Capri_compiler.Region_map
module Ckpt = Capri_compiler.Ckpt
module Prune = Capri_compiler.Prune
module Licm = Capri_compiler.Licm
module Unroll = Capri_compiler.Unroll
module Config = Capri_arch.Config
module Persist = Capri_arch.Persist
module Pool = Capri_util.Pool

type t = {
  focus : Persist.mode;
  compiled : Compiled.t;  (** provenance source (compiles are deterministic) *)
  obs : Obs.t;  (** the focus run's bundle: tracer + region profiler *)
  metrics : Metrics.t;  (** merged across all modes, plus compile provenance *)
  results : (Persist.mode * Executor.result) list;  (** in [modes] order *)
}

(* Compile-time provenance: why each boundary exists and what every
   optimization pass did to the checkpoint population. Mode-independent,
   so it is published once, unlabelled, into the merged registry. *)
let publish_compile_provenance m (compiled : Compiled.t) =
  let set name v = Metrics.Counter.set (Metrics.counter m name) v in
  List.iter
    (fun (reason, n) ->
      Metrics.Counter.set
        (Metrics.counter m "compile_boundaries"
           ~labels:[ ("reason", Region_map.reason_name reason) ])
        n)
    (Region_map.reason_counts compiled.Compiled.regions);
  set "compile_regions" (Region_map.region_count compiled.Compiled.regions);
  set "compile_max_store_bound"
    (Region_map.max_store_bound compiled.Compiled.regions);
  set "compile_loops_seen" compiled.Compiled.unroll_report.Unroll.loops_seen;
  set "compile_loops_unrolled"
    compiled.Compiled.unroll_report.Unroll.loops_unrolled;
  set "compile_ckpts_inserted"
    compiled.Compiled.ckpt_report.Ckpt.ckpts_inserted;
  set "compile_ckpts_pruned" compiled.Compiled.prune_report.Prune.ckpts_pruned;
  set "compile_recovery_blocks"
    compiled.Compiled.prune_report.Prune.recovery_blocks;
  set "compile_ckpts_hoisted"
    compiled.Compiled.licm_report.Licm.ckpts_hoisted;
  set "compile_ckpts_deduped"
    compiled.Compiled.licm_report.Licm.ckpts_deduped;
  set "compile_ckpts_remaining" (Compiled.static_ckpt_count compiled)

let run ?(jobs = 1) ?(config = Config.sim_default) ?(focus = Persist.Capri)
    ?(modes = Persist.all_modes) ~(options : Options.t) ~program ~threads () =
  let modes = if List.mem focus modes then modes else focus :: modes in
  let config = Config.with_threshold options.Options.threshold config in
  let run_mode mode =
    (* Compile inside the task: the pipeline copies the program, so
       concurrent runs never share mutable IR. Compilation is
       deterministic — every task sees the same partition. *)
    let compiled = Pipeline.compile options program in
    let obs =
      {
        Obs.metrics = Metrics.create ();
        tracer = (if mode = focus then Tracer.create () else Tracer.null);
        regions = Profiler.create ();
      }
    in
    let result = Verify.reference ~config ~mode ~obs ~threads compiled in
    Profiler.publish
      ~labels:[ ("mode", Persist.mode_name mode) ]
      obs.Obs.regions obs.Obs.metrics;
    (mode, compiled, obs, result)
  in
  let runs = Pool.with_pool ~jobs (fun p -> Pool.map_list p run_mode modes) in
  let merged = Metrics.create () in
  let _, compiled, _, _ = List.find (fun (m, _, _, _) -> m = focus) runs in
  publish_compile_provenance merged compiled;
  List.iter (fun (_, _, obs, _) -> Metrics.merge_into ~dst:merged obs.Obs.metrics) runs;
  let _, _, focus_obs, _ = List.find (fun (m, _, _, _) -> m = focus) runs in
  {
    focus;
    compiled;
    obs = focus_obs;
    metrics = merged;
    results = List.map (fun (m, _, _, r) -> (m, r)) runs;
  }

let metrics_json t = Metrics.to_json t.metrics
let perfetto_json t = Tracer.to_chrome_json t.obs.Obs.tracer
let validate_trace t = Tracer.validate t.obs.Obs.tracer

(* "Hot" orders by where the persistence cost lands: stall cycles first,
   then NVM traffic, then store volume; the region name breaks ties so
   the table is stable across runs. Regions that never closed have
   nothing to show. *)
let hottest rows ~n =
  let name (r : Executor.region_row) = Executor.region_name r.Executor.id in
  Array.to_list rows
  |> List.filter (fun (r : Executor.region_row) -> r.Executor.executions > 0)
  |> List.sort (fun (a : Executor.region_row) (b : Executor.region_row) ->
         match Int.compare b.Executor.stall_cycles a.Executor.stall_cycles with
         | 0 -> (
           match Int.compare b.Executor.nvm_lines a.Executor.nvm_lines with
           | 0 -> (
             match Int.compare b.Executor.stores a.Executor.stores with
             | 0 -> String.compare (name a) (name b)
             | c -> c)
           | c -> c)
         | c -> c)
  |> List.filteri (fun i _ -> i < n)

let render_top t ~n =
  let rows = (List.assoc t.focus t.results).Executor.profile in
  let top = hottest rows ~n in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %6s %9s %7s %9s %9s %9s\n" "region" "execs"
       "stores" "ckpt" "stall" "commit" "nvm-lines");
  List.iter
    (fun (r : Executor.region_row) ->
      let avg_latency =
        if r.Executor.commits = 0 then 0
        else r.Executor.commit_latency / r.Executor.commits
      in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %6d %9d %7d %9d %9d %9d\n"
           (Executor.region_name r.Executor.id)
           r.Executor.executions r.Executor.stores r.Executor.ckpt_stores
           r.Executor.stall_cycles avg_latency r.Executor.nvm_lines))
    top;
  let closed = List.length (hottest rows ~n:max_int) in
  if closed > List.length top then
    Buffer.add_string buf
      (Printf.sprintf "… (+%d more regions)\n" (closed - List.length top));
  Buffer.contents buf

let render_reasons t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "boundaries by reason:\n";
  List.iter
    (fun (reason, n) ->
      if n > 0 then
        Buffer.add_string buf
          (Printf.sprintf "  %-12s %d\n" (Region_map.reason_name reason) n))
    (Region_map.reason_counts t.compiled.Compiled.regions);
  Buffer.contents buf
