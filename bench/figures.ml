(* The paper's evaluation figures, regenerated over the synthetic suite.
   Each function prints per-benchmark rows, per-suite geomeans and the
   overall geomean, exactly the series the corresponding figure plots. *)

open Capri
module W = Capri_workloads
module Table = Capri_util.Table
module Stat = Capri_util.Stat

let figure8_legend = [ 128; 256; 512; 1024 ]

let print_suite_footer table rows_of_suite =
  let add name suite =
    Table.add_row table (name :: rows_of_suite suite)
  in
  Table.add_sep table;
  add "cpu2017_gmean" (Some W.Kernel.Spec);
  add "stamp_gmean" (Some W.Kernel.Stamp);
  add "splash3_gmean" (Some W.Kernel.Splash3);
  add "overall_gmean" None

(* ------------------------------------------------------------------ *)
(* Figure 8: normalized cycles vs store threshold.                     *)
(* ------------------------------------------------------------------ *)

let figure8 ~scale () =
  print_endline "== Figure 8: normalized execution cycles per store threshold";
  print_endline
    "   (all compiler optimizations on; 1.00 = unmodified volatile run;\n\
    \    the paper's figure plots thresholds 128-1024, its text also\n\
    \    discusses 32 and 64)";
  let kernels = Runner.kernels ~scale in
  let columns = Options.fig8_thresholds in
  Runner.prewarm_baselines kernels;
  let per_kernel =
    Runner.par_map
      (fun k ->
        let row =
          List.map
            (fun threshold ->
              Runner.normalized (Runner.measure_best ~threshold k))
            columns
        in
        (k, row))
      kernels
  in
  let table =
    Table.create
      ~header:("benchmark" :: List.map string_of_int columns)
  in
  List.iter
    (fun ((k : W.Kernel.t), row) ->
      Table.add_row table
        (k.W.Kernel.name :: List.map Table.fmt_f row))
    per_kernel;
  let geo suite i =
    Stat.geomean
      (List.filter_map
         (fun ((k : W.Kernel.t), row) ->
           match suite with
           | Some s when k.W.Kernel.suite <> s -> None
           | Some _ | None -> Some (List.nth row i))
         per_kernel)
  in
  print_suite_footer table (fun suite ->
      List.mapi (fun i _ -> Table.fmt_f (geo suite i)) columns);
  Table.print table;
  (* Paper-vs-measured summary for the text's headline thresholds. *)
  let overall i = geo None i in
  Printf.printf
    "paper: threshold 32 ~ 1.20 overall, 64 ~ 1.10, 256 ~ 1.051\n";
  Printf.printf "measured: threshold 32 = %.3f, 64 = %.3f, 256 = %.3f\n\n"
    (overall 0) (overall 1) (overall 3);
  per_kernel

(* ------------------------------------------------------------------ *)
(* Figure 9: accumulative compiler optimizations.                      *)
(* ------------------------------------------------------------------ *)

let figure9 ~scale () =
  print_endline
    "== Figure 9: normalized cycles, accumulative compiler optimizations";
  print_endline "   (threshold 256; 1.00 = unmodified volatile run)";
  let kernels = Runner.kernels ~scale in
  let configs = Options.fig9_configs in
  Runner.prewarm_baselines kernels;
  let per_kernel =
    Runner.par_map
      (fun k ->
        let row =
          List.map
            (fun (_, options) ->
              Runner.normalized (Runner.measure ~options k))
            configs
        in
        (k, row))
      kernels
  in
  let table =
    Table.create ~header:("benchmark" :: List.map fst configs)
  in
  List.iter
    (fun ((k : W.Kernel.t), row) ->
      Table.add_row table (k.W.Kernel.name :: List.map Table.fmt_f row))
    per_kernel;
  let geo suite i =
    Stat.geomean
      (List.filter_map
         (fun ((k : W.Kernel.t), row) ->
           match suite with
           | Some s when k.W.Kernel.suite <> s -> None
           | Some _ | None -> Some (List.nth row i))
         per_kernel)
  in
  print_suite_footer table (fun suite ->
      List.mapi (fun i _ -> Table.fmt_f (geo suite i)) configs);
  Table.print table;
  print_newline ();
  per_kernel

(* ------------------------------------------------------------------ *)
(* Figures 10 and 11: dynamic region shape.                            *)
(* ------------------------------------------------------------------ *)

let region_figure ~scale ~what ~extract () =
  let kernels = Runner.kernels ~scale in
  let configs = Options.fig9_configs in
  Runner.prewarm_baselines kernels;
  let per_kernel =
    Runner.par_map
      (fun k ->
        let row =
          List.map
            (fun (_, options) ->
              let m = Runner.measure ~options k in
              let rs = m.Runner.result.Executor.region_stats in
              extract rs)
            configs
        in
        (k, row))
      kernels
  in
  let table = Table.create ~header:("benchmark" :: List.map fst configs) in
  List.iter
    (fun ((k : W.Kernel.t), row) ->
      Table.add_row table
        (k.W.Kernel.name :: List.map (Table.fmt_f ~decimals:1) row))
    per_kernel;
  let geo suite i =
    Stat.geomean
      (List.filter_map
         (fun ((k : W.Kernel.t), row) ->
           match suite with
           | Some s when k.W.Kernel.suite <> s -> None
           | Some _ | None -> Some (max 0.001 (List.nth row i)))
         per_kernel)
  in
  print_suite_footer table (fun suite ->
      List.mapi (fun i _ -> Table.fmt_f ~decimals:1 (geo suite i)) configs);
  ignore what;
  Table.print table;
  print_newline ();
  per_kernel

let figure10 ~scale () =
  print_endline "== Figure 10: average number of instructions per region";
  print_endline "   (dynamic, per accumulative optimization config)";
  region_figure ~scale ~what:`Instrs
    ~extract:(fun rs ->
      float_of_int rs.Executor.total_instrs
      /. float_of_int (max 1 rs.Executor.regions_executed))
    ()

let figure11 ~scale () =
  print_endline
    "== Figure 11: average number of store instructions per region";
  print_endline
    "   (dynamic, checkpoint stores included, per optimization config)";
  region_figure ~scale ~what:`Stores
    ~extract:(fun rs ->
      float_of_int rs.Executor.total_stores
      /. float_of_int (max 1 rs.Executor.regions_executed))
    ()

(* ------------------------------------------------------------------ *)
(* NVM write amplification (Section 6.2's endurance claim).            *)
(* ------------------------------------------------------------------ *)

(* The paper argues checkpoint pruning and motion matter for "power
   consumption and NVM endurance" even where cycles barely move: count
   durable line writes (writebacks + redo copies + slot flushes) per
   config, normalized to the boundary-only `region' configuration — the
   intrinsic persistence traffic before any checkpoint stores exist. *)
let nvm_writes ~scale () =
  print_endline
    "== NVM write amplification per optimization config (Section 6.2)";
  print_endline
    "   (durable line writes, normalized to the boundary-only `region'\n\
    \    config; checkpoints amplify NVM writes, pruning/motion shrink\n\
    \    them back)";
  let kernels = Runner.kernels ~scale in
  let configs = Options.fig9_configs in
  let writes_of (m : Runner.measurement) =
    let p = m.Runner.result.Executor.persist_stats in
    float_of_int
      (p.Persist.nvm_writes_wb + p.Persist.nvm_writes_redo
     + p.Persist.nvm_writes_slot)
  in
  Runner.prewarm_baselines kernels;
  let per_kernel =
    Runner.par_map
      (fun k ->
        let raw =
          List.map
            (fun (_, options) -> writes_of (Runner.measure ~options k))
            configs
        in
        let base = max 1.0 (List.hd raw) in
        (k, List.map (fun w -> w /. base) raw))
      kernels
  in
  let table = Table.create ~header:("benchmark" :: List.map fst configs) in
  List.iter
    (fun ((k : W.Kernel.t), row) ->
      Table.add_row table (k.W.Kernel.name :: List.map Table.fmt_f row))
    per_kernel;
  let geo suite i =
    Stat.geomean
      (List.filter_map
         (fun ((k : W.Kernel.t), row) ->
           match suite with
           | Some s when k.W.Kernel.suite <> s -> None
           | Some _ | None -> Some (max 0.001 (List.nth row i)))
         per_kernel)
  in
  print_suite_footer table (fun suite ->
      List.mapi (fun i _ -> Table.fmt_f (geo suite i)) configs);
  Table.print table;
  print_newline ();
  per_kernel

(* ------------------------------------------------------------------ *)
(* Headline numbers (Sections 1 and 6.2).                              *)
(* ------------------------------------------------------------------ *)

let headline ~scale () =
  print_endline "== Headline: WSP overhead at threshold 256 (Section 6.2)";
  let kernels = Runner.kernels ~scale in
  Runner.prewarm_baselines kernels;
  let measurements =
    Runner.par_map
      (fun k ->
        let m = Runner.measure_best ~threshold:256 k in
        (m, Runner.normalized m))
      kernels
  in
  let spec, stamp, splash3, overall = Runner.suite_rows measurements in
  let naive =
    Runner.par_map
      (fun k ->
        let m = Runner.measure_best ~mode:Persist.Naive_sync ~threshold:256 k in
        (m, Runner.normalized m))
      kernels
  in
  let _, _, _, naive_overall = Runner.suite_rows naive in
  let naive_max =
    List.fold_left (fun acc (_, v) -> max acc v) 0.0 naive
  in
  let p pct = (pct -. 1.0) *. 100.0 in
  print_endline "                         paper      measured";
  Printf.printf "  SPEC CPU2017 gmean     ~0%%        %+.1f%%\n" (p spec);
  Printf.printf "  STAMP gmean            12.4%%      %+.1f%%\n" (p stamp);
  Printf.printf "  Splash3 gmean          9.1%%       %+.1f%%\n" (p splash3);
  Printf.printf "  overall gmean          5.1%%       %+.1f%%\n" (p overall);
  Printf.printf "  naive (sync) overall   up to 2x   %.2fx gmean, %.2fx max\n\n"
    naive_overall naive_max;
  (spec, stamp, splash3, overall, naive_overall, naive_max)
