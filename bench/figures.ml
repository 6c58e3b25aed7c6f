(* The paper's evaluation figures, regenerated over the synthetic suite.
   Each function prints per-benchmark rows, per-suite geomeans and the
   overall geomean, exactly the series the corresponding figure plots. *)

open Capri
module W = Capri_workloads

(* One column per accumulative optimization config of Figure 9, and
   [f] of a kernel's measurement under each of them. *)
let config_columns decimals =
  List.map (fun (label, _) -> (label, decimals)) Options.fig9_configs

let per_config h f k =
  List.map
    (fun (_, options) -> f (Runner.measure h ~options k))
    Options.fig9_configs

(* ------------------------------------------------------------------ *)
(* Figure 8: normalized cycles vs store threshold.                     *)
(* ------------------------------------------------------------------ *)

let figure8 h ~scale () =
  print_endline "== Figure 8: normalized execution cycles per store threshold";
  print_endline
    "   (all compiler optimizations on; 1.00 = unmodified volatile run;\n\
    \    the paper's figure plots thresholds 128-1024, its text also\n\
    \    discusses 32 and 64)";
  let columns = Options.fig8_thresholds in
  let rows =
    Runner.kernel_table h ~header:"benchmark"
      ~columns:(List.map (fun c -> (string_of_int c, 2)) columns)
      ~footer:Runner.Suites
      (fun k ->
        List.map
          (fun threshold ->
            Runner.normalized (Runner.measure_best h ~threshold k))
          columns)
      (Runner.kernels ~scale)
  in
  (* Paper-vs-measured summary for the text's headline thresholds. *)
  let overall i = Runner.column_gmean None rows i in
  Printf.printf
    "paper: threshold 32 ~ 1.20 overall, 64 ~ 1.10, 256 ~ 1.051\n";
  Printf.printf "measured: threshold 32 = %.3f, 64 = %.3f, 256 = %.3f\n\n"
    (overall 0) (overall 1) (overall 3);
  rows

(* ------------------------------------------------------------------ *)
(* Figure 9: accumulative compiler optimizations.                      *)
(* ------------------------------------------------------------------ *)

let figure9 h ~scale () =
  print_endline
    "== Figure 9: normalized cycles, accumulative compiler optimizations";
  print_endline "   (threshold 256; 1.00 = unmodified volatile run)";
  let rows =
    Runner.kernel_table h ~header:"benchmark"
      ~columns:(config_columns 2) ~footer:Runner.Suites
      (per_config h Runner.normalized) (Runner.kernels ~scale)
  in
  print_newline ();
  rows

(* ------------------------------------------------------------------ *)
(* Figures 10 and 11: dynamic region shape.                            *)
(* ------------------------------------------------------------------ *)

let region_figure h ~scale ~extract () =
  let rows =
    Runner.kernel_table h ~header:"benchmark"
      ~columns:(config_columns 1) ~footer:Runner.Suites
      (per_config h (fun m -> extract m.Runner.result))
      (Runner.kernels ~scale)
  in
  print_newline ();
  rows

let figure10 h ~scale () =
  print_endline "== Figure 10: average number of instructions per region";
  print_endline "   (dynamic, per accumulative optimization config)";
  region_figure h ~scale ~extract:Runner.instrs_per_region ()

let figure11 h ~scale () =
  print_endline
    "== Figure 11: average number of store instructions per region";
  print_endline
    "   (dynamic, checkpoint stores included, per optimization config)";
  region_figure h ~scale
    ~extract:(fun r ->
      let rs = r.Executor.region_stats in
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
let nvm_writes h ~scale () =
  print_endline
    "== NVM write amplification per optimization config (Section 6.2)";
  print_endline
    "   (durable line writes, normalized to the boundary-only `region'\n\
    \    config; checkpoints amplify NVM writes, pruning/motion shrink\n\
    \    them back)";
  let writes_of (m : Runner.measurement) =
    let p = m.Runner.result.Executor.persist_stats in
    float_of_int
      (p.Persist.nvm_writes_wb + p.Persist.nvm_writes_redo
     + p.Persist.nvm_writes_slot)
  in
  let rows =
    Runner.kernel_table h ~header:"benchmark"
      ~columns:(config_columns 2) ~footer:Runner.Suites
      (fun k ->
        let raw = per_config h writes_of k in
        let base = max 1.0 (List.hd raw) in
        List.map (fun w -> w /. base) raw)
      (Runner.kernels ~scale)
  in
  print_newline ();
  rows

(* ------------------------------------------------------------------ *)
(* Headline numbers (Sections 1 and 6.2).                              *)
(* ------------------------------------------------------------------ *)

let headline h ~scale () =
  print_endline "== Headline: WSP overhead at threshold 256 (Section 6.2)";
  let kernels = Runner.kernels ~scale in
  let best mode =
    Runner.measure_rows h
      (fun k ->
        [ Runner.normalized (Runner.measure_best h ~mode ~threshold:256 k) ])
      kernels
  in
  let capri = best Persist.Capri in
  let gmean suite rows = Runner.column_gmean suite rows 0 in
  let spec = gmean (Some W.Kernel.Spec) capri in
  let stamp = gmean (Some W.Kernel.Stamp) capri in
  let splash3 = gmean (Some W.Kernel.Splash3) capri in
  let overall = gmean None capri in
  let naive = best Persist.Naive_sync in
  let naive_overall = gmean None naive in
  let naive_max =
    List.fold_left (fun acc (_, row) -> max acc (List.hd row)) 0.0 naive
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
