(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index). With no arguments
   it runs the full set; individual experiments can be selected:

     dune exec bench/main.exe -- table1 fig8 fig9 fig10 fig11 headline \
                                 ablation micro

   `--help` documents the options. Data goes to stdout; timing lines go
   to stderr so stdout stays deterministic across job counts and
   machines. *)

open Cmdliner
open Capri_bench
module W = Capri_workloads
module Metrics = Capri_obs.Metrics

let scale = W.Suite.bench_scale

let table1 () =
  print_endline "== Table 1: simulator configuration";
  Format.printf "%a@." Capri.Config.pp_table Capri.Config.table1;
  print_endline
    "   (sim_default scales cache capacities to the synthetic workloads;\n\
    \    latencies and queue structure identical:)";
  Format.printf "%a@.@." Capri.Config.pp_table Capri.Config.sim_default

(* A named series per benchmark (or summary statistic) — the JSON rows. *)
type row = { rname : string; values : float list }

let rows_of_per_kernel per_kernel =
  List.map
    (fun ((k : W.Kernel.t), vs) -> { rname = k.W.Kernel.name; values = vs })
    per_kernel

let experiments : (string * (Runner.t -> row list)) list =
  [
    ("table1", fun _ -> table1 (); []);
    ("fig8", fun h -> rows_of_per_kernel (Figures.figure8 h ~scale ()));
    ("fig9", fun h -> rows_of_per_kernel (Figures.figure9 h ~scale ()));
    ("fig10", fun h -> rows_of_per_kernel (Figures.figure10 h ~scale ()));
    ("fig11", fun h -> rows_of_per_kernel (Figures.figure11 h ~scale ()));
    ( "headline",
      fun h ->
        let spec, stamp, splash3, overall, naive_overall, naive_max =
          Figures.headline h ~scale ()
        in
        [
          { rname = "cpu2017_gmean"; values = [ spec ] };
          { rname = "stamp_gmean"; values = [ stamp ] };
          { rname = "splash3_gmean"; values = [ splash3 ] };
          { rname = "overall_gmean"; values = [ overall ] };
          { rname = "naive_overall_gmean"; values = [ naive_overall ] };
          { rname = "naive_max"; values = [ naive_max ] };
        ] );
    ("nvmwrites", fun h -> rows_of_per_kernel (Figures.nvm_writes h ~scale ()));
    ("ablation", fun h -> Ablation.all h ~scale (); []);
    ("sensitivity", fun h -> Sensitivity.all h (); []);
    ("micro", fun _ -> Micro.print (); []);
  ]

(* ------------------------------------------------------------------ *)
(* JSON output (hand-rolled: the schema is flat and fixed).            *)
(* ------------------------------------------------------------------ *)

let json_float f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null"
  | _ -> Printf.sprintf "%.6g" f

let write_json oc ?registry entries =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (name, wall_s, rows) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "  {\"experiment\": \"%s\", \"wall_s\": %s, \"rows\": ["
           (Metrics.json_escape name) (json_float wall_s));
      List.iteri
        (fun j { rname; values } ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "{\"name\": \"%s\", \"values\": [%s]}"
               (Metrics.json_escape rname)
               (String.concat ", " (List.map json_float values))))
        rows;
      Buffer.add_string buf "]}")
    entries;
  Option.iter
    (fun doc ->
      if entries <> [] then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "  {\"experiment\": \"metrics\", \"registry\": %s}"
           (String.trim doc)))
    registry;
  Buffer.add_string buf "\n]\n";
  output_string oc (Buffer.contents buf);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

let run jobs want_metrics selected json_oc =
  let harness = Runner.create ~jobs ~metrics:want_metrics in
  Fun.protect ~finally:(fun () -> Runner.shutdown harness) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let entries =
    List.map
      (fun (name, f) ->
        let e0 = Unix.gettimeofday () in
        let rows = f harness in
        (name, Unix.gettimeofday () -. e0, rows))
      selected
  in
  let total = Unix.gettimeofday () -. t0 in
  let registry = Runner.metrics_snapshot harness in
  (match json_oc with
   | Some oc -> write_json oc ?registry entries
   | None ->
     Option.iter
       (fun doc ->
         print_endline "== merged metrics registry";
         print_string doc)
       registry);
  Printf.eprintf "total harness time: %.1fs (%d jobs)\n" total jobs;
  true

let () =
  let metrics =
    let doc =
      "Run every measurement with an enabled metrics registry and embed the \
       merged (mode-labelled) snapshot in the JSON report as a final \
       {\"experiment\": \"metrics\", \"registry\": {...}} entry (printed to \
       stdout when no $(b,--json) sink is given). Deterministic at any job \
       count."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let selected =
    let doc =
      "Experiments to run, in order: "
      ^ String.concat ", " (List.map fst experiments)
      ^ "."
    in
    let named = List.map (fun ((name, _) as e) -> (name, e)) experiments in
    Arg.(
      value & pos_all (enum named) experiments
      & info [] ~docv:"EXPERIMENT" ~doc ~absent:"all")
  in
  (* Open the JSON sink before hours of simulation, not after. *)
  let json =
    let doc =
      "Also write the machine-readable results to $(docv) as a JSON array \
       of {\"experiment\":..., \"wall_s\":..., \"rows\":[...]}."
    in
    let sink file =
      match Option.map open_out file with
      | oc -> `Ok oc
      | exception Sys_error msg -> `Error (false, "option '--json': " ^ msg)
    in
    Term.(
      ret
        (const sink
        $ Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)))
  in
  let info =
    Cli.info "bench/main.exe"
      ~doc:"Regenerate the tables and figures of the paper's evaluation"
  in
  exit
    (Cli.eval
       (Cmd.v info Term.(const run $ Cli.jobs $ metrics $ selected $ json)))
