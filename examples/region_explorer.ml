(* Region explorer: shows what the Capri compiler does to a program —
   the boundary placement, the checkpoint stores, the unrolled loops and
   the region statistics — across the paper's accumulative optimization
   configurations. Useful for understanding Figures 10 and 11.

     dune exec examples/region_explorer.exe [kernel-name]
*)

open Capri
module W = Capri_workloads

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "508.namd_r" in
  let kernel =
    try W.Suite.by_name ~scale:3 name
    with Not_found ->
      Printf.eprintf "unknown kernel %s; available:\n  %s\n" name
        (String.concat "\n  " W.Suite.names);
      exit 1
  in
  Printf.printf "kernel %s: %s\n\n" kernel.W.Kernel.name
    kernel.W.Kernel.description;
  List.iter
    (fun (label, options) ->
      let compiled = Pipeline.compile options kernel.W.Kernel.program in
      let result = run ~threads:kernel.W.Kernel.threads compiled in
      let rs = result.Executor.region_stats in
      Printf.printf "--- %-11s %s\n" label
        (Format.asprintf "%a" Compiled.pp_summary compiled
         |> String.split_on_char '\n'
         |> String.concat "; ");
      Printf.printf
        "    dynamic: %d regions, %.1f instrs/region, %.2f stores/region \
         (max %d), %d cycles\n"
        rs.Executor.regions_executed
        (float_of_int rs.Executor.total_instrs
         /. float_of_int (max 1 rs.Executor.regions_executed))
        (float_of_int rs.Executor.total_stores
         /. float_of_int (max 1 rs.Executor.regions_executed))
        rs.Executor.max_stores_in_region result.Executor.cycles)
    Options.fig9_configs;
  print_newline ();
  (* Dynamic region timeline under the full optimization set. *)
  let compiled = Pipeline.compile Options.all_opts kernel.W.Kernel.program in
  let obs = Capri_obs.Obs.create () in
  let session =
    Executor.start ~obs ~program:compiled.Compiled.program
      ~threads:kernel.W.Kernel.threads ()
  in
  (match Executor.run session with
   | Executor.Finished _ | Executor.Crashed _ -> ());
  print_endline "dynamic region timeline (all optimizations):";
  print_string
    (Executor.render_timeline ~max_rows:24 obs.Capri_obs.Obs.tracer);
  print_newline ();
  (* Show the compiled IR of the smallest configuration for reading. *)
  let compiled = Pipeline.compile Options.up_to_ckpt kernel.W.Kernel.program in
  print_endline "compiled IR (region + ckpt only):";
  Format.printf "%a@." Program.pp compiled.Compiled.program
