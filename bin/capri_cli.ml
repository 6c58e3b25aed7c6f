(* capri — command-line front end over the library.

   Subcommands:
     list                       enumerate the workload kernels
     compile  <kernel>          show region/checkpoint statistics
     run      <kernel>          run under the Capri architecture
     crash    <kernel>          crash-sweep a kernel and verify recovery
     serve                      KV serving under the acked-durability oracle
     show-config                print Table 1
*)

open Cmdliner
open Capri
module W = Capri_workloads

let kernel_arg =
  let doc = "Workload kernel name (see `capri list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

let scale_arg =
  let doc = "Workload scale factor." in
  Arg.(value & opt int 6 & info [ "scale" ] ~docv:"N" ~doc)

let threshold_arg =
  let doc = "Region store threshold (paper default 256)." in
  Arg.(value & opt int 256 & info [ "threshold" ] ~docv:"N" ~doc)

(* Selects the execution engine for every simulation the invocation runs
   (the term sets `Executor.default_engine`; all session starts that do
   not pin an engine inherit it). *)
let engine_arg =
  let doc =
    "Execution engine ($(docv)): `compiled' pre-lowers basic blocks to \
     closure arrays (the default, or \\$CAPRI_ENGINE); `interp' is the \
     AST-walking reference engine. Simulation results are identical \
     either way; only wall-clock speed changes."
  in
  let engines =
    [ ("interp", Executor.Interp); ("compiled", Executor.Compiled) ]
  in
  Term.(
    const (fun e -> Executor.default_engine := e)
    $ Arg.(
        value
        & opt (enum engines) !Executor.default_engine
        & info [ "engine" ] ~docv:"interp|compiled" ~doc))

let find_kernel name scale =
  try W.Suite.by_name ~scale name
  with Not_found ->
    Printf.eprintf "unknown kernel %s\n" name;
    exit 1

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        let k = W.Suite.by_name ~scale:2 name in
        Printf.printf "%-16s [%s] %s\n" name
          (W.Kernel.suite_name k.W.Kernel.suite)
          k.W.Kernel.description)
      W.Suite.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List the workload kernels")
    Term.(const run $ const ())

let compile_cmd =
  let explain_arg =
    let doc =
      "Explain every region boundary (why it exists) and the checkpoint \
       provenance of each optimisation pass, for the full configuration."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run name scale threshold explain =
    let k = find_kernel name scale in
    if explain then
      let options = Options.with_threshold threshold Options.default in
      let compiled = Pipeline.compile options k.W.Kernel.program in
      Format.printf "%a@.%a@." Compiled.pp_summary compiled Compiled.pp_explain
        compiled
    else
      List.iter
        (fun (label, options) ->
          let options = Options.with_threshold threshold options in
          let compiled = Pipeline.compile options k.W.Kernel.program in
          Format.printf "--- %s@.%a@." label Compiled.pp_summary compiled)
        Options.fig9_configs
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a kernel and report statistics")
    Term.(const run $ kernel_arg $ scale_arg $ threshold_arg $ explain_arg)

let pgo_arg =
  let doc = "Use profile-guided compilation (Section 6.3 future work)." in
  Arg.(value & flag & info [ "pgo" ] ~doc)

let run_cmd =
  let run name scale threshold pgo () =
    let k = find_kernel name scale in
    let baseline = run_volatile ~threads:k.W.Kernel.threads k.W.Kernel.program in
    let options = Options.with_threshold threshold Options.default in
    let compiled =
      if pgo then
        compile_pgo ~options ~threads:k.W.Kernel.threads k.W.Kernel.program
      else Pipeline.compile options k.W.Kernel.program
    in
    let config = Config.with_threshold threshold Config.sim_default in
    let result = run ~config ~threads:k.W.Kernel.threads compiled in
    let rs = result.Executor.region_stats in
    Printf.printf "volatile: %d cycles\n" baseline.Executor.cycles;
    Printf.printf "capri:    %d cycles (overhead %.2f%%)\n"
      result.Executor.cycles
      (100.0 *. (overhead ~baseline result -. 1.0));
    Printf.printf
      "dynamic:  %d instrs, %d stores + %d checkpoint stores, %d regions \
       (%.1f instrs, %.2f stores per region)\n"
      result.Executor.instrs result.Executor.stores result.Executor.ckpt_stores
      rs.Executor.regions_executed
      (float_of_int rs.Executor.total_instrs
       /. float_of_int (max 1 rs.Executor.regions_executed))
      (float_of_int rs.Executor.total_stores
       /. float_of_int (max 1 rs.Executor.regions_executed));
    Array.iteri
      (fun core outputs ->
        if outputs <> [] then
          Printf.printf "core %d out: %s\n" core
            (String.concat " " (List.map string_of_int outputs)))
      result.Executor.outputs
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a kernel under whole-system persistence")
    Term.(
      const run $ kernel_arg $ scale_arg $ threshold_arg $ pgo_arg
      $ engine_arg)

let crash_cmd =
  let points_arg =
    let doc = "Number of crash points to test." in
    Arg.(value & opt int 40 & info [ "points" ] ~docv:"N" ~doc)
  in
  let run name scale threshold points () =
    let k = find_kernel name scale in
    let options = Options.with_threshold threshold Options.default in
    let compiled = Pipeline.compile options k.W.Kernel.program in
    let reference =
      Verify.reference ~threads:k.W.Kernel.threads compiled
    in
    let stride = max 1 (reference.Executor.instrs / points) in
    match
      crash_sweep ~threads:k.W.Kernel.threads ~stride compiled
    with
    | Ok report ->
      Printf.printf
        "%d crash points: all recovered (%d recoveries, %d recovery \
         blocks, %d stale reads)\n"
        report.Verify.crash_points report.Verify.recoveries
        report.Verify.recovery_blocks_run report.Verify.stale_reads
    | Error f ->
      Printf.printf "FAILED at %s: %s\n"
        (String.concat "," (List.map string_of_int f.Verify.crash_at))
        f.Verify.reason;
      exit 1
  in
  Cmd.v
    (Cmd.info "crash" ~doc:"Crash-sweep a kernel and verify every recovery")
    Term.(
      const run $ kernel_arg $ scale_arg $ threshold_arg $ points_arg
      $ engine_arg)

let exec_cmd =
  let file_arg =
    let doc = "Path to a textual IR program (see Capri.Parser)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let crash_flag =
    let doc = "Also crash-sweep the program and verify recovery." in
    Arg.(value & flag & info [ "crash" ] ~doc)
  in
  let run file threshold crash () =
    match Parser.parse_file file with
    | Error e ->
      Format.eprintf "%s: %a@." file Parser.pp_error e;
      exit 1
    | Ok program ->
      let baseline = run_volatile program in
      let options = Options.with_threshold threshold Options.default in
      let compiled = Pipeline.compile options program in
      let config = Config.with_threshold threshold Config.sim_default in
      let result = run ~config compiled in
      Printf.printf "volatile: %d cycles | capri: %d cycles (overhead %.2f%%)\n"
        baseline.Executor.cycles result.Executor.cycles
        (100.0 *. (overhead ~baseline result -. 1.0));
      Array.iteri
        (fun core outputs ->
          if outputs <> [] then
            Printf.printf "core %d out: %s\n" core
              (String.concat " " (List.map string_of_int outputs)))
        result.Executor.outputs;
      if crash then
        match crash_sweep compiled with
        | Ok report ->
          Printf.printf "crash sweep: %d points, all recovered\n"
            report.Verify.crash_points
        | Error f ->
          Printf.printf "crash sweep FAILED: %s\n" f.Verify.reason;
          exit 1
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Compile and run a textual IR program from a file")
    Term.(const run $ file_arg $ threshold_arg $ crash_flag $ engine_arg)

let profile_cmd =
  let target_arg =
    let doc =
      "Workload kernel name (see `capri list') or path to a textual IR \
       program (e.g. examples/counter.capri)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  let perfetto_arg =
    let doc =
      "Write the focus run's span trace as Chrome trace-event JSON \
       (open in https://ui.perfetto.dev or chrome://tracing)."
    in
    Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc = "Write the merged metrics registry snapshot as JSON." in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "Rows in the hottest-regions table." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc =
      "Run the per-mode simulations over N domains (output is \
       byte-identical at any job count)."
    in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let doc = "Focus mode for the trace and region profile ($(docv))." in
    let modes =
      List.map (fun m -> (Persist.mode_name m, m)) Persist.all_modes
    in
    Arg.(
      value
      & opt (enum modes) Persist.Capri
      & info [ "mode" ] ~docv:"capri|naive-sync|undo-sync|redo-nowb|volatile"
          ~doc)
  in
  let write_file file contents =
    let oc = open_out file in
    output_string oc contents;
    close_out oc
  in
  let run target scale threshold top jobs focus perfetto metrics_file () =
    let program, threads =
      if Sys.file_exists target then
        match Parser.parse_file target with
        | Error e ->
          Format.eprintf "%s: %a@." target Parser.pp_error e;
          exit 1
        | Ok program -> (program, [ Executor.main_thread program ])
      else
        let k = find_kernel target scale in
        (k.W.Kernel.program, k.W.Kernel.threads)
    in
    let options = Options.with_threshold threshold Options.default in
    let p = Profile.run ~jobs ~focus ~options ~program ~threads () in
    (match Profile.validate_trace p with
     | Ok () -> ()
     | Error msg ->
       Printf.eprintf "trace validation failed: %s\n" msg;
       exit 1);
    List.iter
      (fun (mode, (r : Executor.result)) ->
        Printf.printf "%-12s %10d cycles  %8d nvm line writes\n"
          (Persist.mode_name mode) r.Executor.cycles
          r.Executor.persist_stats.Capri_arch.Persist.nvm_line_writes)
      p.Profile.results;
    print_newline ();
    print_string (Profile.render_reasons p);
    print_newline ();
    Printf.printf "hottest regions (%s mode):\n"
      (Persist.mode_name p.Profile.focus);
    print_string (Profile.render_top p ~n:top);
    Option.iter
      (fun f ->
        write_file f (Profile.perfetto_json p);
        Printf.eprintf "wrote %s (perfetto trace, %d events)\n" f
          (Capri_obs.Tracer.count p.Profile.obs.Capri_obs.Obs.tracer))
      perfetto;
    Option.iter
      (fun f ->
        write_file f (Profile.metrics_json p);
        Printf.eprintf "wrote %s (metrics snapshot)\n" f)
      metrics_file
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a kernel under every persistence mode: merged metrics, \
          Perfetto span trace and hottest-regions table")
    Term.(
      const run $ target_arg $ scale_arg $ threshold_arg $ top_arg $ jobs_arg
      $ mode_arg $ perfetto_arg $ metrics_arg $ engine_arg)

let trace_cmd =
  let run name scale threshold () =
    let k = find_kernel name scale in
    let options = Options.with_threshold threshold Options.default in
    let compiled = Pipeline.compile options k.W.Kernel.program in
    let obs = Capri_obs.Obs.create () in
    let session =
      Executor.start ~obs ~program:compiled.Compiled.program
        ~threads:k.W.Kernel.threads ()
    in
    (match Executor.run session with
     | Executor.Finished _ | Executor.Crashed _ -> ());
    print_string (Executor.render_timeline obs.Capri_obs.Obs.tracer)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Show the dynamic region timeline of a kernel")
    Term.(const run $ kernel_arg $ scale_arg $ threshold_arg $ engine_arg)

let serve_cmd =
  let module Svc = Capri_service in
  let shards_arg =
    let doc = "Shard cores serving the store." in
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let mix_arg =
    let doc = "YCSB-style request mix ($(docv))." in
    let mixes = List.map (fun m -> (Svc.Client.mix_name m, m))
        [ Svc.Client.A; Svc.Client.B; Svc.Client.C ]
    in
    Arg.(value & opt (enum mixes) Svc.Client.A & info [ "mix" ] ~docv:"A|B|C" ~doc)
  in
  let ops_arg =
    let doc = "Requests per shard." in
    Arg.(value & opt int 200 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let crash_arg =
    let doc =
      "Crashes injected mid-service (volatile mode always runs crash-free)."
    in
    Arg.(value & opt int 2 & info [ "crash" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc =
      "Run the per-mode services over N domains (output is byte-identical \
       at any job count)."
    in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let txn_mix_arg =
    let doc =
      "Weave $(docv) x --ops cross-shard transactions (multi-get/put/cas \
       under two-phase commit) into each run; 0 disables. Transactional \
       stores bypass admission control."
    in
    Arg.(value & opt float 0.0 & info [ "txn-mix" ] ~docv:"FRAC" ~doc)
  in
  let txn_items_arg =
    let doc = "Maximum items per participant shard in each transaction." in
    Arg.(value & opt int 2 & info [ "txn-items" ] ~docv:"N" ~doc)
  in
  let mode_enum =
    List.map (fun m -> (Persist.mode_name m, m)) Persist.all_modes
  in
  let focus_arg =
    let doc =
      "Persistence mode of the focus run that the observability flags \
       ($(b,--perfetto), $(b,--timeline), $(b,--slo)) report on."
    in
    Arg.(value & opt (enum mode_enum) Persist.Capri & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let perfetto_arg =
    let doc =
      "Write a Perfetto / chrome://tracing trace of the focus run to \
       $(docv): region spans per core, request-lifecycle spans per core, \
       crash instants. The trace is validated (balanced, monotone per \
       track) before writing."
    in
    Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE" ~doc)
  in
  let timeline_arg =
    let doc =
      "Print the windowed service timeline of the focus run: per-window \
       throughput, latency percentiles, in-flight depth, rejects, \
       downtime and recoveries."
    in
    Arg.(value & flag & info [ "timeline" ] ~doc)
  in
  let slo_arg =
    let doc =
      "Print the SLO/availability report of the focus run: unavailability \
       windows, availability %, p99 inside vs. outside recovery, replay \
       cost per recovery."
    in
    Arg.(value & flag & info [ "slo" ] ~doc)
  in
  let slo_p99_arg =
    let doc =
      "p99 latency target in cycles; the SLO report grades the focus run \
       against it and the command fails when it is missed."
    in
    Arg.(value & opt (some int) None & info [ "slo-p99" ] ~docv:"CYCLES" ~doc)
  in
  let slo_avail_arg =
    let doc =
      "Availability target as a fraction (e.g. 0.999); graded like \
       $(b,--slo-p99)."
    in
    Arg.(value & opt (some float) None & info [ "slo-avail" ] ~docv:"FRAC" ~doc)
  in
  let window_arg =
    let doc = "Timeline window width in cycles (default: run/24)." in
    Arg.(value & opt (some int) None & info [ "window" ] ~docv:"CYCLES" ~doc)
  in
  let tenants_arg =
    let doc =
      "Serve $(docv) tenants instead of one: the noisy-neighbor cast \
       (tenant 0 zipfian-heavy, the rest uniform, equal weights) over \
       per-tenant key namespaces, with per-tenant served/p99 reported per \
       mode and per-tenant rows in the $(b,--slo) report."
    in
    Arg.(value & opt int 1 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let cores_arg =
    let doc =
      "Multiplex the shards over $(docv) worker cores through the \
       work-stealing scheduler instead of pinning one shard per core \
       (0 keeps the pinned layout)."
    in
    Arg.(value & opt int 0 & info [ "cores" ] ~docv:"N" ~doc)
  in
  let steal_arg =
    let doc =
      "With $(b,--cores): enable work stealing ($(docv) = on, the \
       default) or keep every shard on its home core as the static \
       pinning reference ($(docv) = off)."
    in
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) true
      & info [ "steal" ] ~docv:"on|off" ~doc)
  in
  let keys_arg =
    let doc =
      "Bulk-load $(docv) already-committed keys per shard before serving \
       (and widen the client key space to match); 0 serves an empty store. \
       The oracle treats preloaded pairs as served history."
    in
    Arg.(value & opt int 0 & info [ "keys" ] ~docv:"N" ~doc)
  in
  let compact_arg =
    let doc =
      "Compact each core's durable journal whenever its un-checkpointed \
       tail reaches $(docv) entries, bounding recovery replay by the \
       interval instead of served history; 0 disables compaction."
    in
    Arg.(value & opt int 0 & info [ "compact" ] ~docv:"N" ~doc)
  in
  let rjobs_arg =
    let doc =
      "Plan per-core crash recovery over $(docv) domains (images and \
       stats are byte-identical at any width)."
    in
    Arg.(value & opt int 1 & info [ "recovery-jobs" ] ~docv:"N" ~doc)
  in
  let run shards mix ops crashes jobs txn_mix txn_items focus perfetto
      timeline slo slo_p99 slo_avail window tenants cores steal keys compact
      rjobs () =
    let client =
      {
        Svc.Client.default with
        Svc.Client.mix;
        ops_per_shard = ops;
        key_space =
          (if keys > 0 then keys else Svc.Client.default.Svc.Client.key_space);
        txns = int_of_float (max 0.0 txn_mix *. float_of_int ops);
        txn_items = max 1 txn_items;
      }
    in
    let preload =
      if keys <= 0 then [||]
      else
        Array.init (max 1 shards) (fun s ->
            Array.init keys (fun i ->
                let key = i + 1 in
                (key, (key + (s * 17)) mod 251)))
    in
    let sched =
      if cores > 0 then
        Some { Svc.Sched.cores; quantum = Svc.Sched.default.Svc.Sched.quantum; steal }
      else None
    in
    let tenant_cast =
      if tenants > 1 then
        Some (Svc.Client.noisy_tenants ~tenants ~skew:1.2)
      else None
    in
    let plan_for mode =
      Svc.Server.plan
        {
          Svc.Server.default_cfg with
          Svc.Server.shards;
          client;
          mode;
          sched;
          tenants = tenant_cast;
          config =
            { Config.sim_default with Config.compact_interval = max 0 compact };
          recovery_jobs = max 1 rjobs;
          preload;
        }
    in
    let schedule_for t mode =
      if crashes <= 0 || mode = Persist.Volatile then []
      else begin
        let total = (Svc.Server.run t).Svc.Server.result.Executor.instrs in
        List.init crashes (fun _ -> max 1 (total / (crashes + 1)))
      end
    in
    let serve mode =
      let t = plan_for mode in
      let outcome = Svc.Server.run ~crash_at:(schedule_for t mode) t in
      ( mode,
        Svc.Server.check t outcome,
        Svc.Server.stats t outcome,
        Svc.Server.steals t outcome,
        Svc.Server.tenant_stats t outcome )
    in
    let results =
      Capri_util.Pool.with_pool ~jobs:(max 1 jobs) (fun pool ->
          Capri_util.Pool.map_list pool serve Persist.all_modes)
    in
    let failed = ref false in
    List.iter
      (fun (mode, checked, stats, steals, per_tenant) ->
        Format.printf "%-12s %a@." (Persist.mode_name mode) Svc.Sla.pp_stats
          stats;
        if sched <> None then
          Format.printf "%-12s   steals %d@." (Persist.mode_name mode) steals;
        Array.iteri
          (fun tn (served, p99) ->
            Format.printf "%-12s   tenant %d: %d served, p99 %.0f@."
              (Persist.mode_name mode) tn served p99)
          per_tenant;
        match checked with
        | Ok () -> ()
        | Error v ->
          failed := true;
          Format.printf "%-12s ORACLE VIOLATION: %a@." (Persist.mode_name mode)
            Svc.Sla.pp_violation v)
      results;
    (* Focus run with observability on: one instrumented pass through the
       selected mode, reported through the requested lenses. *)
    let want_report = slo || slo_p99 <> None || slo_avail <> None in
    if perfetto <> None || timeline || want_report then begin
      let t = plan_for focus in
      let obs = Capri_obs.Obs.create () in
      let outcome = Svc.Server.run ~obs ~crash_at:(schedule_for t focus) t in
      (match Svc.Server.check t outcome with
      | Ok () -> ()
      | Error v ->
        failed := true;
        Format.printf "%-12s ORACLE VIOLATION: %a@." (Persist.mode_name focus)
          Svc.Sla.pp_violation v);
      (match Capri_obs.Tracer.validate obs.Capri_obs.Obs.tracer with
      | Ok () -> ()
      | Error e ->
        Printf.eprintf "trace of %s run is malformed: %s\n"
          (Persist.mode_name focus) e;
        failed := true);
      (match perfetto with
      | Some file ->
        let oc = open_out file in
        output_string oc
          (Capri_obs.Tracer.to_chrome_json obs.Capri_obs.Obs.tracer);
        close_out oc;
        Printf.printf "wrote %s (%d events, %s mode)\n" file
          (Capri_obs.Tracer.count obs.Capri_obs.Obs.tracer)
          (Persist.mode_name focus)
      | None -> ());
      if timeline then
        print_string
          (Svc.Slo.render_timeline (Svc.Slo.timeline ?width:window ~t outcome));
      if want_report then begin
        let r =
          Svc.Slo.report ?slo_p99 ?slo_avail:(Option.map (fun a -> a) slo_avail)
            ~t outcome
        in
        Format.printf "%a" Svc.Slo.pp_report r;
        let missed =
          (match (r.Svc.Slo.slo_p99, r.Svc.Slo.p99_burn) with
          | Some _, Some burn -> burn > 1.0
          | _ -> false)
          ||
          match r.Svc.Slo.slo_avail with
          | Some target -> r.Svc.Slo.availability < target
          | None -> false
        in
        if missed then failed := true
      end
    end;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a key-value workload — optionally with cross-shard \
          transactions under two-phase commit — under every persistence \
          mode, crashing mid-service, and report throughput, latency and \
          recovery time under the serializability + acked-durability \
          oracle. With $(b,--perfetto), $(b,--timeline) or $(b,--slo), an \
          instrumented focus run additionally exports request-lifecycle \
          traces, a windowed service timeline and an SLO/availability \
          report")
    Term.(
      const run $ shards_arg $ mix_arg $ ops_arg $ crash_arg $ jobs_arg
      $ txn_mix_arg $ txn_items_arg $ focus_arg $ perfetto_arg $ timeline_arg
      $ slo_arg $ slo_p99_arg $ slo_avail_arg $ window_arg $ tenants_arg
      $ cores_arg $ steal_arg $ keys_arg $ compact_arg $ rjobs_arg
      $ engine_arg)

let show_config_cmd =
  let run () = Format.printf "%a@." Config.pp_table Config.table1 in
  Cmd.v (Cmd.info "show-config" ~doc:"Print the Table 1 configuration")
    Term.(const run $ const ())

let () =
  let doc = "Capri: whole-system persistence, compiler + architecture" in
  let info = Cmd.info "capri" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; compile_cmd; run_cmd; crash_cmd; exec_cmd; profile_cmd;
            serve_cmd; trace_cmd; show_config_cmd ]))
