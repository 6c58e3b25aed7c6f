(* Ablations over the Section-5 design choices that the paper argues for
   but does not plot: logging strategy, front-end proxy capacity, and the
   stale-read machinery.

   Every function first collects its measurements through Runner.par_map
   (independent tasks, input-order results) and only then prints, so the
   tables are identical at any job count. *)

open Capri
module W = Capri_workloads
module Table = Capri_util.Table
module Stat = Capri_util.Stat

let subset ~scale =
  List.map
    (fun name -> W.Suite.by_name ~scale name)
    [ "505.mcf_r"; "519.lbm_r"; "genome"; "ssca2"; "ocean"; "radix" ]

(* Logging strategy: undo+redo (Capri) vs undo-only (synchronous region
   persistence) vs redo-only (dropped writebacks + indirect reads) vs the
   naive strawman. *)
let logging ~scale () =
  print_endline "== Ablation: logging strategy (Section 5.1)";
  let modes =
    [ ("capri(undo+redo)", Persist.Capri); ("undo-only", Persist.Undo_sync);
      ("redo-only", Persist.Redo_nowb); ("naive-sync", Persist.Naive_sync) ]
  in
  let kernels = subset ~scale in
  Runner.prewarm_baselines kernels;
  let columns =
    List.map
      (fun (_, mode) ->
        Runner.par_map
          (fun k ->
            let m = Runner.measure ~mode ~options:Options.default k in
            Runner.normalized m)
          kernels)
      modes
  in
  let table =
    Table.create ~header:("benchmark" :: List.map fst modes)
  in
  List.iteri
    (fun i (k : W.Kernel.t) ->
      Table.add_row table
        (k.W.Kernel.name
         :: List.map (fun col -> Table.fmt_f (List.nth col i)) columns))
    kernels;
  Table.add_sep table;
  Table.add_row table
    ("gmean" :: List.map (fun col -> Table.fmt_f (Stat.geomean col)) columns);
  Table.print table;
  print_newline ()

(* Front-end proxy capacity: the knob behind the "core stalls only when
   the front-end proxy is full" design. *)
let front_size ~scale () =
  print_endline "== Ablation: front-end proxy buffer capacity (Section 5.2.1)";
  let sizes = [ 4; 8; 16; 32; 64 ] in
  let kernels = subset ~scale in
  Runner.prewarm_baselines kernels;
  let rows =
    Runner.par_map
      (fun (k : W.Kernel.t) ->
        let row =
          List.map
            (fun entries ->
              let config =
                { Config.sim_default with Config.front_proxy_entries = entries }
              in
              let m = Runner.measure ~config ~options:Options.default k in
              Runner.normalized m)
            sizes
        in
        (k, row))
      kernels
  in
  let table =
    Table.create ~header:("benchmark" :: List.map string_of_int sizes)
  in
  List.iter
    (fun ((k : W.Kernel.t), row) ->
      Table.add_row table (k.W.Kernel.name :: List.map Table.fmt_f row))
    rows;
  Table.print table;
  print_newline ()

(* Stale-read machinery: count how often the back-end scan and the
   monitoring window fire, and confirm the oracle sees no stale NVM
   reads. *)
let stale_reads ~scale () =
  print_endline "== Ablation: stale-read prevention activity (Section 5.3)";
  let kernels = subset ~scale in
  Runner.prewarm_baselines kernels;
  let rows =
    Runner.par_map
      (fun (k : W.Kernel.t) ->
        let m = Runner.measure ~options:Options.default k in
        let p = m.Runner.result.Executor.persist_stats in
        [
          k.W.Kernel.name;
          string_of_int p.Persist.scan_invalidations;
          string_of_int p.Persist.window_invalidations;
          string_of_int
            (p.Persist.redo_skipped_invalid + p.Persist.redo_skipped_stale);
          string_of_int m.Runner.result.Executor.stale_reads;
        ])
      kernels
  in
  let table =
    Table.create
      ~header:
        [ "benchmark"; "wb-scans hits"; "window hits"; "redo skipped";
          "stale reads" ]
  in
  List.iter (Table.add_row table) rows;
  Table.print table;
  print_newline ()

(* Our extension: what sound multi-core recovery costs. *)
let conflict_fence ~scale () =
  print_endline
    "== Ablation: cross-core conflict fence (our extension; the paper's\n\
    \   hardware has no equivalent and leaves multi-core recovery open)";
  let kernels =
    List.map (fun n -> W.Suite.by_name ~scale n)
      [ "barnes"; "ocean"; "radiosity"; "water-nsquared"; "water-spatial";
        "radix" ]
  in
  Runner.prewarm_baselines kernels;
  let rows =
    Runner.par_map
      (fun (k : W.Kernel.t) ->
        let off =
          Runner.normalized
            (Runner.measure ~fence:false ~options:Options.default k)
        in
        let on_ =
          Runner.normalized
            (Runner.measure ~fence:true ~options:Options.default k)
        in
        (k, off, on_))
      kernels
  in
  let table = Table.create ~header:[ "benchmark"; "fence off"; "fence on" ] in
  List.iter
    (fun ((k : W.Kernel.t), off, on_) ->
      Table.add_row table
        [ k.W.Kernel.name; Table.fmt_f off; Table.fmt_f on_ ])
    rows;
  (* rev: the sequential version accumulated these with [::], and float
     geomean summation order affects the last bit. *)
  let offs = List.rev_map (fun (_, off, _) -> off) rows in
  let ons = List.rev_map (fun (_, _, on_) -> on_) rows in
  Table.add_sep table;
  Table.add_row table
    [ "gmean"; Table.fmt_f (Stat.geomean offs); Table.fmt_f (Stat.geomean ons) ];
  Table.print table;
  print_newline ()

(* Section 6.3 future work, implemented: profile-guided region formation
   (measured trip counts drive the speculative unroll factors). *)
let pgo ~scale () =
  print_endline
    "== Future work (Section 6.3): profile-guided region formation";
  let kernels =
    List.map (fun n -> W.Suite.by_name ~scale n)
      [ "505.mcf_r"; "541.leela_r"; "508.namd_r"; "ssca2"; "volrend";
        "water-spatial" ]
  in
  Runner.prewarm_baselines kernels;
  let rows =
    Runner.par_map
      (fun (k : W.Kernel.t) ->
        let baseline = float_of_int (Runner.baseline_cycles k) in
        let region_size (r : Executor.result) =
          float_of_int r.Executor.region_stats.Executor.total_instrs
          /. float_of_int
               (max 1 r.Executor.region_stats.Executor.regions_executed)
        in
        let fence_off c =
          { (Config.with_threshold 256 c) with Config.conflict_fence = false }
        in
        let config = fence_off Config.sim_default in
        let rd =
          run ~config ~threads:k.W.Kernel.threads
            (Pipeline.compile Options.default k.W.Kernel.program)
        in
        let rp =
          run ~config ~threads:k.W.Kernel.threads
            (compile_pgo ~config ~threads:k.W.Kernel.threads
               k.W.Kernel.program)
        in
        let d = float_of_int rd.Executor.cycles /. baseline in
        let p = float_of_int rp.Executor.cycles /. baseline in
        (k, d, p, region_size rd, region_size rp))
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
  let d_all = List.rev_map (fun (_, d, _, _, _) -> d) rows in
  let p_all = List.rev_map (fun (_, _, p, _, _) -> p) rows in
  Table.add_sep table;
  Table.add_row table
    [ "gmean"; Table.fmt_f (Stat.geomean d_all);
      Table.fmt_f (Stat.geomean p_all); ""; "" ];
  Table.print table;
  print_newline ()

(* Section 3.3's open I/O problem, implemented as suggested: what the
   durable output journal costs. *)
let journal ~scale () =
  print_endline
    "== Open problem (Section 3.3): journaled exactly-once I/O cost";
  let kernels =
    List.map (fun n -> W.Suite.by_name ~scale n)
      [ "541.leela_r"; "genome"; "raytrace" ]
  in
  Runner.prewarm_baselines kernels;
  let rows =
    Runner.par_map
      (fun (k : W.Kernel.t) ->
        let baseline = float_of_int (Runner.baseline_cycles k) in
        let compiled = Pipeline.compile Options.default k.W.Kernel.program in
        let cycles journal_io =
          let r =
            Recovery.drive ~crash_at:[] compiled
              (Recovery.machine ~journal_io ~threads:k.W.Kernel.threads
                 compiled)
          in
          float_of_int r.Executor.cycles
        in
        [ k.W.Kernel.name;
          Table.fmt_f (cycles false /. baseline);
          Table.fmt_f (cycles true /. baseline) ])
      kernels
  in
  let table = Table.create ~header:[ "benchmark"; "plain"; "journaled" ] in
  List.iter (Table.add_row table) rows;
  Table.print table;
  print_newline ()

(* Thread scaling: the paper simulates 8 cores; confirm the WSP overhead
   holds as parallelism grows (per-core proxies scale by construction). *)
let thread_scaling ~scale () =
  print_endline "== Ablation: thread scaling (paper: 8 cores)";
  let builds =
    [ (fun threads -> W.Splash3.ocean ~threads ~scale ());
      (fun threads -> W.Splash3.raytrace ~threads ~scale ());
      (fun threads -> W.Splash3.barnes ~threads ~scale ());
      (fun threads -> W.Splash3.radix ~threads ~scale ()) ]
  in
  let rows =
    Runner.par_map
      (fun build ->
        List.map
          (fun threads ->
            let k : W.Kernel.t = build threads in
            let baseline =
              run_volatile ~threads:k.W.Kernel.threads k.W.Kernel.program
            in
            let compiled =
              Pipeline.compile Options.default k.W.Kernel.program
            in
            let config =
              { Config.sim_default with Config.conflict_fence = false }
            in
            let result = run ~config ~threads:k.W.Kernel.threads compiled in
            (k.W.Kernel.name, overhead ~baseline result))
          [ 2; 4; 8 ])
      builds
  in
  let table =
    Table.create ~header:[ "benchmark"; "2 threads"; "4 threads"; "8 threads" ]
  in
  List.iter
    (fun row ->
      match row with
      | (name, a) :: rest ->
        Table.add_row table
          (name :: Table.fmt_f a :: List.map (fun (_, v) -> Table.fmt_f v) rest)
      | [] -> ())
    rows;
  Table.print table;
  print_newline ()

let all ~scale () =
  thread_scaling ~scale ();
  logging ~scale ();
  front_size ~scale ();
  stale_reads ~scale ();
  conflict_fence ~scale ();
  pgo ~scale ();
  journal ~scale ()
