(* capri — command-line front end over the library. `capri --help` lists
   the subcommands; their flags and exit codes go through Cli. *)

open Cmdliner
open Capri
module W = Capri_workloads

let scale_arg =
  let doc = "Workload scale factor." in
  Arg.(value & opt Cli.positive 6 & info [ "scale" ] ~docv:"N" ~doc)

(* The named kernel, built at --scale. *)
let kernel_arg =
  let doc = "Workload kernel name (see `capri list')." in
  let named =
    Arg.(required & pos 0 (some Cli.kernel) None & info [] ~docv:"KERNEL" ~doc)
  in
  Term.(const (fun name scale -> W.Suite.by_name ~scale name) $ named $ scale_arg)

let threshold_arg =
  let doc = "Region store threshold (paper default 256)." in
  Arg.(value & opt Cli.positive 256 & info [ "threshold" ] ~docv:"N" ~doc)

let perfetto_arg =
  let doc =
    "Write the focus run's span trace to $(docv) as Chrome trace-event JSON \
     (open in https://ui.perfetto.dev or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE" ~doc)

let write_file file contents =
  let oc = open_out file in
  output_string oc contents;
  close_out oc

let print_outputs (result : Executor.result) =
  Array.iteri
    (fun core outputs ->
      if outputs <> [] then
        Printf.printf "core %d out: %s\n" core
          (String.concat " " (List.map string_of_int outputs)))
    result.Executor.outputs

let list_cmd =
  let run () =
    List.iter
      (fun (k : W.Kernel.t) ->
        Printf.printf "%-16s [%s] %s\n" k.W.Kernel.name
          (W.Kernel.suite_name k.W.Kernel.suite)
          k.W.Kernel.description)
      (W.Suite.all ~scale:2 ());
    true
  in
  Cmd.v (Cli.info "list" ~doc:"List the workload kernels")
    Term.(const run $ const ())

let compile_cmd =
  let explain_arg =
    let doc =
      "Explain every region boundary (why it exists) and the checkpoint \
       provenance of each optimisation pass, for the full configuration."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run (k : W.Kernel.t) threshold explain =
    (if explain then
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
        Options.fig9_configs);
    true
  in
  Cmd.v (Cli.info "compile" ~doc:"Compile a kernel and report statistics")
    Term.(const run $ kernel_arg $ threshold_arg $ explain_arg)

let pgo_arg =
  let doc = "Use profile-guided compilation (Section 6.3 future work)." in
  Arg.(value & flag & info [ "pgo" ] ~doc)

let run_cmd =
  let run (k : W.Kernel.t) threshold pgo =
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
    print_outputs result;
    true
  in
  Cmd.v (Cli.info "run" ~doc:"Run a kernel under whole-system persistence")
    Term.(const run $ kernel_arg $ threshold_arg $ pgo_arg)

let crash_cmd =
  let points_arg =
    let doc = "Number of crash points to test (at least 1)." in
    Arg.(value & opt Cli.positive 40 & info [ "points" ] ~docv:"N" ~doc)
  in
  let run (k : W.Kernel.t) threshold points =
    let options = Options.with_threshold threshold Options.default in
    let compiled = Pipeline.compile options k.W.Kernel.program in
    match crash_sweep ~threads:k.W.Kernel.threads ~points compiled with
    | Ok report ->
      Printf.printf
        "%d crash points: all recovered (%d recoveries, %d recovery \
         blocks, %d stale reads)\n"
        report.Verify.crash_points report.Verify.recoveries
        report.Verify.recovery_blocks_run report.Verify.stale_reads;
      true
    | Error f ->
      Printf.printf "FAILED at %s: %s\n"
        (String.concat "," (List.map string_of_int f.Verify.crash_at))
        f.Verify.reason;
      false
  in
  Cmd.v
    (Cli.info "crash" ~doc:"Crash-sweep a kernel and verify every recovery")
    Term.(const run $ kernel_arg $ threshold_arg $ points_arg)

let exec_cmd =
  let file_arg =
    let doc = "Path to a textual IR program (see Capri.Parser)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let crash_flag =
    let doc = "Also crash-sweep the program and verify recovery." in
    Arg.(value & flag & info [ "crash" ] ~doc)
  in
  let run file threshold crash =
    match Parser.parse_file file with
    | Error e ->
      Format.eprintf "%s: %a@." file Parser.pp_error e;
      false
    | Ok program ->
      let baseline = run_volatile program in
      let options = Options.with_threshold threshold Options.default in
      let compiled = Pipeline.compile options program in
      let config = Config.with_threshold threshold Config.sim_default in
      let result = run ~config compiled in
      Printf.printf "volatile: %d cycles | capri: %d cycles (overhead %.2f%%)\n"
        baseline.Executor.cycles result.Executor.cycles
        (100.0 *. (overhead ~baseline result -. 1.0));
      print_outputs result;
      if not crash then true
      else
        match crash_sweep compiled with
        | Ok report ->
          Printf.printf "crash sweep: %d points, all recovered\n"
            report.Verify.crash_points;
          true
        | Error f ->
          Printf.printf "crash sweep FAILED: %s\n" f.Verify.reason;
          false
  in
  Cmd.v
    (Cli.info "exec" ~doc:"Compile and run a textual IR program from a file")
    Term.(const run $ file_arg $ threshold_arg $ crash_flag)

let profile_cmd =
  let target_arg =
    let doc =
      "Workload kernel name (see `capri list') or path to a textual IR \
       program (e.g. examples/counter.capri)."
    in
    let parse s =
      if Sys.file_exists s then Ok s else Arg.conv_parser Cli.kernel s
    in
    let target = Arg.conv (parse, Format.pp_print_string) in
    Arg.(required & pos 0 (some target) None & info [] ~docv:"TARGET" ~doc)
  in
  let metrics_arg =
    let doc = "Write the merged metrics registry snapshot as JSON." in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "Rows in the hottest-regions table." in
    Arg.(value & opt Cli.non_negative 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run target scale threshold top jobs focus perfetto metrics_file =
    let source =
      if Sys.file_exists target then
        Result.map
          (fun program -> (program, [ Executor.main_thread program ]))
          (Parser.parse_file target)
      else
        let k = W.Suite.by_name ~scale target in
        Ok (k.W.Kernel.program, k.W.Kernel.threads)
    in
    match source with
    | Error e ->
      Format.eprintf "%s: %a@." target Parser.pp_error e;
      false
    | Ok (program, threads) -> (
      let options = Options.with_threshold threshold Options.default in
      let p = Profile.run ~jobs ~focus ~options ~program ~threads () in
      match Profile.validate_trace p with
      | Error msg ->
        Printf.eprintf "trace validation failed: %s\n" msg;
        false
      | Ok () ->
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
          metrics_file;
        true)
  in
  Cmd.v
    (Cli.info "profile"
       ~doc:
         "Profile a kernel under every persistence mode: merged metrics, \
          Perfetto span trace and hottest-regions table")
    Term.(
      const run $ target_arg $ scale_arg $ threshold_arg $ top_arg $ Cli.jobs
      $ Cli.focus $ perfetto_arg $ metrics_arg)

let trace_cmd =
  let run (k : W.Kernel.t) threshold =
    let options = Options.with_threshold threshold Options.default in
    let compiled = Pipeline.compile options k.W.Kernel.program in
    let tracer = Capri_obs.Tracer.create () in
    let obs = { Capri_obs.Obs.null with Capri_obs.Obs.tracer } in
    ignore (Verify.reference ~obs ~threads:k.W.Kernel.threads compiled);
    print_string (Executor.render_timeline tracer);
    true
  in
  Cmd.v
    (Cli.info "trace" ~doc:"Show the dynamic region timeline of a kernel")
    Term.(const run $ kernel_arg $ threshold_arg)

let serve_cmd =
  let module Svc = Capri_service in
  let mix_arg =
    let doc = "YCSB-style request mix ($(docv))." in
    let mixes = List.map (fun m -> (Svc.Client.mix_name m, m))
        [ Svc.Client.A; Svc.Client.B; Svc.Client.C ]
    in
    Arg.(value & opt (enum mixes) Svc.Client.A & info [ "mix" ] ~docv:"A|B|C" ~doc)
  in
  let txn_mix_arg =
    let doc =
      "Weave $(docv) x --ops cross-shard transactions (multi-get/put/cas \
       under two-phase commit) into each run; 0 disables. Transactional \
       stores bypass admission control."
    in
    Arg.(
      value & opt Cli.non_negative_float 0.0 & info [ "txn-mix" ] ~docv:"FRAC" ~doc)
  in
  let txn_items_arg =
    let doc = "Maximum items per participant shard in each transaction." in
    Arg.(value & opt Cli.positive 2 & info [ "txn-items" ] ~docv:"N" ~doc)
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
    Arg.(
      value & opt (some Cli.positive) None & info [ "slo-p99" ] ~docv:"CYCLES" ~doc)
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
    Arg.(
      value & opt (some Cli.positive) None & info [ "window" ] ~docv:"CYCLES" ~doc)
  in
  let tenants_arg =
    let doc =
      "Serve $(docv) tenants instead of one: the noisy-neighbor cast \
       (tenant 0 zipfian-heavy, the rest uniform, equal weights) over \
       per-tenant key namespaces, with per-tenant served/p99 reported per \
       mode and per-tenant rows in the $(b,--slo) report."
    in
    Arg.(value & opt Cli.positive 1 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let cores_arg =
    let doc =
      "Multiplex the shards over $(docv) worker cores through the \
       work-stealing scheduler instead of pinning one shard per core \
       (0 keeps the pinned layout)."
    in
    Arg.(value & opt Cli.non_negative 0 & info [ "cores" ] ~docv:"N" ~doc)
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
    Arg.(value & opt Cli.non_negative 0 & info [ "keys" ] ~docv:"N" ~doc)
  in
  let compact_arg =
    let doc =
      "Compact each core's durable journal whenever its un-checkpointed \
       tail reaches $(docv) entries, bounding recovery replay by the \
       interval instead of served history; 0 disables compaction."
    in
    Arg.(value & opt Cli.non_negative 0 & info [ "compact" ] ~docv:"N" ~doc)
  in
  (* The store every mode serves, validated before anything is served:
     a preload whose shard tables cannot fit the heap, or more cores
     than the machine layout has stacks for, is a usage error. *)
  let cfg_term =
    let cfg shards mix ops txn_mix txn_items tenants cores steal keys compact =
      match Svc.Kvstore.synthetic_preload ~shards ~keys with
      | exception Invalid_argument msg ->
        `Error (true, "option '--keys': " ^ msg)
      | preload ->
        let client =
          {
            Svc.Client.default with
            Svc.Client.mix;
            ops_per_shard = ops;
            key_space =
              (if keys > 0 then keys
               else Svc.Client.default.Svc.Client.key_space);
            txns = int_of_float (txn_mix *. float_of_int ops);
            txn_items;
          }
        in
        let cfg =
          {
            Svc.Server.default_cfg with
            Svc.Server.shards;
            client;
            sched =
              (if cores > 0 then
                 Some { Svc.Sched.default with Svc.Sched.cores; steal }
               else None);
            tenants =
              (if tenants > 1 then
                 Some (Svc.Client.noisy_tenants ~tenants ~skew:1.2)
               else None);
            config =
              { Config.sim_default with Config.compact_interval = compact };
            preload;
          }
        in
        match Svc.Server.check_cores cfg with
        | () -> `Ok cfg
        | exception Invalid_argument msg ->
          `Error
            ( true,
              Printf.sprintf "option '%s'%s: %s"
                (if cores > 0 then "--cores" else "--shards")
                (if client.Svc.Client.txns > 0 then " with '--txn-mix'"
                 else "")
                msg )
    in
    Term.(
      ret
        (const cfg $ Cli.shards $ mix_arg $ Cli.ops ~default:200 $ txn_mix_arg
       $ txn_items_arg $ tenants_arg $ cores_arg $ steal_arg $ keys_arg
       $ compact_arg))
  in
  let run (cfg : Svc.Server.cfg) crashes jobs focus perfetto timeline slo
      slo_p99 slo_avail window =
    let plan_for mode = Svc.Server.plan { cfg with Svc.Server.mode } in
    let serve mode =
      let t = plan_for mode in
      let outcome =
        Svc.Server.run ~crash_at:(Svc.Server.crash_schedule ~crashes t) t
      in
      ( mode,
        Svc.Server.check t outcome,
        Svc.Server.stats t outcome,
        Svc.Server.steals t outcome,
        Svc.Slo.tenant_rows ~t outcome )
    in
    let results =
      Capri_util.Pool.with_pool ~jobs (fun pool ->
          Capri_util.Pool.map_list pool serve Persist.all_modes)
    in
    let failed = ref false in
    List.iter
      (fun (mode, checked, stats, steals, per_tenant) ->
        Format.printf "%-12s %a@." (Persist.mode_name mode) Svc.Sla.pp_stats
          stats;
        if cfg.Svc.Server.sched <> None then
          Format.printf "%-12s   steals %d@." (Persist.mode_name mode) steals;
        List.iter
          (fun (r : Svc.Slo.tenant_row) ->
            Format.printf "%-12s   tenant %d: %d served, p99 %.0f@."
              (Persist.mode_name mode) r.Svc.Slo.tenant r.Svc.Slo.t_served
              r.Svc.Slo.t_p99)
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
      (* the registry too: the request spans are recorded only into an
         enabled one *)
      let obs =
        { Capri_obs.Obs.null with
          Capri_obs.Obs.metrics = Capri_obs.Metrics.create ();
          tracer = Capri_obs.Tracer.create () }
      in
      let outcome =
        Svc.Server.run ~obs ~crash_at:(Svc.Server.crash_schedule ~crashes t) t
      in
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
      Option.iter
        (fun file ->
          write_file file (Capri_obs.Tracer.to_chrome_json obs.Capri_obs.Obs.tracer);
          Printf.printf "wrote %s (%d events, %s mode)\n" file
            (Capri_obs.Tracer.count obs.Capri_obs.Obs.tracer)
            (Persist.mode_name focus))
        perfetto;
      if timeline then
        print_string
          (Svc.Slo.render_timeline (Svc.Slo.timeline ?width:window ~t outcome));
      if want_report then begin
        let r = Svc.Slo.report ?slo_p99 ?slo_avail ~t outcome in
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
    not !failed
  in
  Cmd.v
    (Cli.info "serve"
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
      const run $ cfg_term $ Cli.crashes $ Cli.jobs $ Cli.focus $ perfetto_arg
      $ timeline_arg $ slo_arg $ slo_p99_arg $ slo_avail_arg $ window_arg)

let show_config_cmd =
  let run () =
    Format.printf "%a@." Config.pp_table Config.table1;
    true
  in
  Cmd.v (Cli.info "show-config" ~doc:"Print the Table 1 configuration")
    Term.(const run $ const ())

let () =
  let doc = "Capri: whole-system persistence, compiler + architecture" in
  let info = Cli.info "capri" ~version:"1.0.0" ~doc in
  exit
    (Cli.eval
       (Cmd.group info
          [ list_cmd; compile_cmd; run_cmd; crash_cmd; exec_cmd; profile_cmd;
            serve_cmd; trace_cmd; show_config_cmd ]))
