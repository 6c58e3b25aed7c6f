(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index). With no arguments
   it runs the full set; individual experiments can be selected:

     dune exec bench/main.exe -- table1 fig8 fig9 fig10 fig11 headline \
                                 ablation micro

   Options:
     --jobs N     measurement parallelism (default: $CAPRI_JOBS if set,
                  else the machine's recommended domain count). Results
                  are byte-identical at any job count.
     --json FILE  also write the machine-readable results as a JSON array
                  of {"experiment":..., "wall_s":..., "rows":[...]}.
     --metrics    run every measurement with an enabled metrics registry
                  and embed the merged (mode-labelled) snapshot in the
                  JSON report as a final {"experiment": "metrics",
                  "registry": {...}} entry (printed to stdout when no
                  --json sink is given). Deterministic at any job count.

   Data goes to stdout; timing lines go to stderr so stdout stays
   deterministic across job counts and machines. *)

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

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [--json FILE] [experiment ...]\n\
     available experiments: %s\n"
    (String.concat ", " (List.map fst experiments))

let () =
  let jobs = ref 0 in
  let json_file = ref None in
  let want_metrics = ref false in
  let selected = ref [] in
  let bad msg = Printf.eprintf "%s\n" msg; usage (); exit 1 in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | Some _ | None -> bad (Printf.sprintf "%s expects a positive integer" flag)
  in
  let rec parse = function
    | [] -> ()
    | "--" :: rest -> parse rest
    | "--help" :: _ | "-h" :: _ -> usage (); exit 0
    | "--jobs" :: v :: rest -> jobs := int_arg "--jobs" v; parse rest
    | [ "--jobs" ] -> bad "--jobs expects an argument"
    | "--json" :: f :: rest -> json_file := Some f; parse rest
    | [ "--json" ] -> bad "--json expects an argument"
    | "--metrics" :: rest -> want_metrics := true; parse rest
    | a :: rest when String.length a >= 7 && String.sub a 0 7 = "--jobs=" ->
      jobs := int_arg "--jobs" (String.sub a 7 (String.length a - 7));
      parse rest
    | a :: rest when String.length a >= 7 && String.sub a 0 7 = "--json=" ->
      json_file := Some (String.sub a 7 (String.length a - 7));
      parse rest
    | a :: rest ->
      if not (List.mem_assoc a experiments) then
        bad (Printf.sprintf "unknown experiment %s" a);
      selected := a :: !selected;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match List.rev !selected with
    | [] -> List.map fst experiments
    | l -> l
  in
  let jobs = if !jobs > 0 then !jobs else Capri_util.Pool.default_jobs () in
  (* Open the JSON sink before hours of simulation, not after. *)
  let json_oc =
    Option.map
      (fun file ->
        try open_out file
        with Sys_error msg -> Printf.eprintf "--json: %s\n" msg; exit 1)
      !json_file
  in
  let harness = Runner.create ~jobs ~metrics:!want_metrics in
  Fun.protect ~finally:(fun () -> Runner.shutdown harness) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let entries =
    List.map
      (fun name ->
        let f = List.assoc name experiments in
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
  Printf.eprintf "total harness time: %.1fs (%d jobs)\n" total jobs
