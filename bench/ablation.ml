(* Ablations over the Section-5 design choices that the paper argues for
   but does not plot: logging strategy, front-end proxy capacity, and the
   stale-read machinery.

   Every table measures its rows through the harness first (independent
   tasks, input-order results) and only then prints, so the tables are
   identical at any job count. *)

open Capri
module W = Capri_workloads
module Table = Capri_util.Table
module Stat = Capri_util.Stat

let subset ~scale =
  List.map
    (fun name -> W.Suite.by_name ~scale name)
    [ "505.mcf_r"; "519.lbm_r"; "genome"; "ssca2"; "ocean"; "radix" ]

let print_table h ~columns ~footer row kernels =
  ignore
    (Runner.kernel_table h ~header:"benchmark" ~columns ~footer row kernels);
  print_newline ()

(* Logging strategy: undo+redo (Capri) vs undo-only (synchronous region
   persistence) vs redo-only (dropped writebacks + indirect reads) vs the
   naive strawman. *)
let logging h ~scale () =
  print_endline "== Ablation: logging strategy (Section 5.1)";
  let modes =
    [ ("capri(undo+redo)", Persist.Capri); ("undo-only", Persist.Undo_sync);
      ("redo-only", Persist.Redo_nowb); ("naive-sync", Persist.Naive_sync) ]
  in
  print_table h
    ~columns:(List.map (fun (head, _) -> (head, 2)) modes)
    ~footer:Runner.Gmean
    (fun k ->
      List.map
        (fun (_, mode) ->
          Runner.normalized
            (Runner.measure h ~mode ~options:Options.default k))
        modes)
    (subset ~scale)

(* Front-end proxy capacity: the knob behind the "core stalls only when
   the front-end proxy is full" design. *)
let front_size h ~scale () =
  print_endline "== Ablation: front-end proxy buffer capacity (Section 5.2.1)";
  let sizes = [ 4; 8; 16; 32; 64 ] in
  print_table h
    ~columns:(List.map (fun n -> (string_of_int n, 2)) sizes)
    ~footer:Runner.No_footer
    (fun k ->
      List.map
        (fun entries ->
          let config =
            { Config.sim_default with Config.front_proxy_entries = entries }
          in
          Runner.normalized
            (Runner.measure h ~config ~options:Options.default k))
        sizes)
    (subset ~scale)

(* Stale-read machinery: count how often the back-end scan and the
   monitoring window fire, and confirm the oracle sees no stale NVM
   reads. *)
let stale_reads h ~scale () =
  print_endline "== Ablation: stale-read prevention activity (Section 5.3)";
  print_table h
    ~columns:
      [ ("wb-scans hits", 0); ("window hits", 0); ("redo skipped", 0);
        ("stale reads", 0) ]
    ~footer:Runner.No_footer
    (fun k ->
      let m = Runner.measure h ~options:Options.default k in
      let p = m.Runner.result.Executor.persist_stats in
      List.map float_of_int
        [ p.Persist.scan_invalidations; p.Persist.window_invalidations;
          p.Persist.redo_skipped_invalid + p.Persist.redo_skipped_stale;
          m.Runner.result.Executor.stale_reads ])
    (subset ~scale)

(* Our extension: what sound multi-core recovery costs. *)
let conflict_fence h ~scale () =
  print_endline
    "== Ablation: cross-core conflict fence (our extension; the paper's\n\
    \   hardware has no equivalent and leaves multi-core recovery open)";
  print_table h
    ~columns:[ ("fence off", 2); ("fence on", 2) ]
    ~footer:Runner.Gmean
    (fun k ->
      List.map
        (fun fence ->
          Runner.normalized
            (Runner.measure h ~fence ~options:Options.default k))
        [ false; true ])
    (List.map (fun n -> W.Suite.by_name ~scale n)
       [ "barnes"; "ocean"; "radiosity"; "water-nsquared"; "water-spatial";
         "radix" ])

(* Section 6.3 future work, implemented: profile-guided region formation
   (measured trip counts drive the speculative unroll factors). *)
let pgo h ~scale () =
  print_endline
    "== Future work (Section 6.3): profile-guided region formation";
  let kernels =
    List.map (fun n -> W.Suite.by_name ~scale n)
      [ "505.mcf_r"; "541.leela_r"; "508.namd_r"; "ssca2"; "volrend";
        "water-spatial" ]
  in
  let rows =
    Runner.par_map h
      (fun (k : W.Kernel.t) ->
        let baseline = float_of_int (Runner.baseline_cycles h k) in
        let config =
          { (Config.with_threshold 256 Config.sim_default) with
            Config.conflict_fence = false }
        in
        let threads = k.W.Kernel.threads in
        let rd =
          run ~config ~threads
            (Pipeline.compile Options.default k.W.Kernel.program)
        in
        let rp =
          run ~config ~threads (compile_pgo ~config ~threads k.W.Kernel.program)
        in
        let d = float_of_int rd.Executor.cycles /. baseline in
        let p = float_of_int rp.Executor.cycles /. baseline in
        (k, d, p, Runner.instrs_per_region rd, Runner.instrs_per_region rp))
      kernels
  in
  let table =
    Table.create
      ~header:
        [ "benchmark"; "default"; "pgo"; "instr/region default";
          "instr/region pgo" ]
  in
  List.iter
    (fun ((k : W.Kernel.t), d, p, sd, sp) ->
      Table.add_row table
        [ k.W.Kernel.name; Table.fmt_f d; Table.fmt_f p;
          Table.fmt_f ~decimals:1 sd; Table.fmt_f ~decimals:1 sp ])
    rows;
  let d_all = List.map (fun (_, d, _, _, _) -> d) rows in
  let p_all = List.map (fun (_, _, p, _, _) -> p) rows in
  Table.add_sep table;
  Table.add_row table
    [ "gmean"; Table.fmt_f (Stat.geomean d_all);
      Table.fmt_f (Stat.geomean p_all); ""; "" ];
  Table.print table;
  print_newline ()

(* Section 3.3's open I/O problem, implemented as suggested: what the
   durable output journal costs. *)
let journal h ~scale () =
  print_endline
    "== Open problem (Section 3.3): journaled exactly-once I/O cost";
  print_table h
    ~columns:[ ("plain", 2); ("journaled", 2) ]
    ~footer:Runner.No_footer
    (fun (k : W.Kernel.t) ->
      let baseline = float_of_int (Runner.baseline_cycles h k) in
      let compiled = Pipeline.compile Options.default k.W.Kernel.program in
      let cycles journal_io =
        let r =
          Recovery.drive ~crash_at:[] compiled
            (Recovery.machine ~journal_io ~threads:k.W.Kernel.threads compiled)
        in
        float_of_int r.Executor.cycles
      in
      [ cycles false /. baseline; cycles true /. baseline ])
    (List.map (fun n -> W.Suite.by_name ~scale n)
       [ "541.leela_r"; "genome"; "raytrace" ])

(* Thread scaling: the paper simulates 8 cores; confirm the WSP overhead
   holds as parallelism grows (per-core proxies scale by construction).
   A row is a kernel at its default core count; each cell rebuilds it
   at the column's count and simulates that build's own baseline. *)
let thread_scaling h ~scale () =
  print_endline "== Ablation: thread scaling (paper: 8 cores)";
  let threads = [ 2; 4; 8 ] in
  print_table h
    ~columns:(List.map (fun n -> (string_of_int n ^ " threads", 2)) threads)
    ~footer:Runner.No_footer
    (fun (k : W.Kernel.t) ->
      List.map
        (fun threads ->
          let k = W.Suite.by_name ~threads ~scale k.W.Kernel.name in
          let baseline =
            run_volatile ~threads:k.W.Kernel.threads k.W.Kernel.program
          in
          let compiled = Pipeline.compile Options.default k.W.Kernel.program in
          let config =
            { Config.sim_default with Config.conflict_fence = false }
          in
          overhead ~baseline (run ~config ~threads:k.W.Kernel.threads compiled))
        threads)
    (List.map (fun n -> W.Suite.by_name ~scale n)
       [ "ocean"; "raytrace"; "barnes"; "radix" ])

let all h ~scale () =
  thread_scaling h ~scale ();
  logging h ~scale ();
  front_size h ~scale ();
  stale_reads h ~scale ();
  conflict_fence h ~scale ();
  pgo h ~scale ();
  journal h ~scale ()
