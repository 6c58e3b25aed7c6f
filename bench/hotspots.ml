(* hotspots: host time inside the simulator, by function, from SIGPROF
   samples.

     dune exec bench/hotspots.exe                # fig8's session mix
     dune exec bench/hotspots.exe -- fig8        # the same
     dune exec bench/hotspots.exe -- barnes      # one kernel's share of it
     dune exec bench/hotspots.exe -- crash-fuzz  # the crash campaigns

   The session mix is the one perfbench's fig8 workload runs, done twice:
   for each kernel at [Suite.bench_scale], its two volatile source runs
   (the default machine, then one with a slower L2), then every region
   threshold x compiler configuration, compiled and run in Capri mode.
   [crash-fuzz] runs perfbench's crash-fuzz repetition twice: the kernel
   campaign and the service campaign at seed 0, 200 oracle executions
   each, one job, 0..2 transactions per service trial.

   A profiling interval timer (ITIMER_PROF) ticks every 0.5 ms of CPU
   time. The SIGPROF handler takes the OCaml call stack and counts its
   innermost frame (self) and each distinct frame on it (inclusive). The
   top 25 frames of each list are printed with their sample counts.

   OCaml 5 runs signal handlers at safepoints only: allocations,
   function entries and loop back-edges. A sample is taken at the first
   safepoint after its tick, so self shares lean toward functions that
   contain safepoints. The inclusive shares, which only need a frame to
   be on the stack, are the ones to trust. Samples are not
   deterministic, so `make check` does not run this. *)

open Capri
module W = Capri_workloads

let interval_s = 0.0005
let top = 25
let depth = 128

let self = Hashtbl.create 256
let inclusive = Hashtbl.create 256
let samples = ref 0

let bump tbl name =
  Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some name -> name
  | None -> (
    match Printexc.Slot.location slot with
    | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
    | None -> "?")

(* This tool's own frames: the handler on top of every sampled stack,
   its main loop at the bottom. *)
let is_own name = String.starts_with ~prefix:"Dune__exe__Hotspots" name

let sample _ =
  match Printexc.backtrace_slots (Printexc.get_callstack depth) with
  | None -> ()
  | Some slots ->
    let frames =
      Array.to_list slots |> List.map frame_name
      |> List.filter (fun n -> not (is_own n))
    in
    (match frames with
     | [] -> ()
     | innermost :: _ ->
       incr samples;
       bump self innermost;
       List.iter (bump inclusive) (List.sort_uniq String.compare frames))

let print_top title tbl =
  Printf.printf "\n%s\n%9s %7s  %s\n" title "samples" "share" "frame";
  Hashtbl.fold (fun name n acc -> (n, name) :: acc) tbl []
  |> List.sort (fun (a, x) (b, y) ->
         match Int.compare b a with 0 -> String.compare x y | c -> c)
  |> List.iteri (fun i (n, name) ->
         if i < top then
           Printf.printf "%9d %6.1f%%  %s\n" n
             (100. *. float_of_int n /. float_of_int (max 1 !samples))
             name)

(* perfbench's fig8 repetition: the source runs, then the matrix. *)
let shifted =
  { Config.sim_default with Config.l2_hit = 2 * Config.sim_default.Config.l2_hit }

let run_kernel (k : W.Kernel.t) =
  let threads = k.W.Kernel.threads in
  let simulate ~config ~mode ?check_threshold program =
    let session =
      Executor.start ~config ~mode ?check_threshold ~program ~threads ()
    in
    match Executor.run session with
    | Executor.Finished _ -> ()
    | Executor.Crashed _ -> failwith "crash-free run crashed"
  in
  simulate ~config:Config.sim_default ~mode:Persist.Volatile k.W.Kernel.program;
  simulate ~config:shifted ~mode:Persist.Volatile k.W.Kernel.program;
  List.iter
    (fun (threshold, cells) ->
      List.iter
        (fun (_, options, config) ->
          let compiled = Pipeline.compile options k.W.Kernel.program in
          simulate ~config ~mode:Persist.Capri ~check_threshold:threshold
            compiled.Compiled.program)
        cells)
    Capri.fig8_matrix

(* perfbench's crash-fuzz repetition. *)
let crash_fuzz () =
  let module C = Capri_fuzz.Campaign in
  let module S = Capri_fuzz.Service_fuzz in
  ignore (C.run { C.default_cfg with C.seed = 0; budget = 200; jobs = 1 });
  ignore
    (S.run
       { S.default_cfg with
         S.seed = 0; budget = 200; jobs = 1; min_txns = 0; max_txns = 2 })

let target =
  let parse = function
    | ("fig8" | "crash-fuzz") as s -> Ok s
    | s -> Cmdliner.Arg.conv_parser Cli.kernel s
  in
  let doc =
    "$(b,fig8)'s session mix (the default), one kernel's share of it, or \
     perfbench's $(b,crash-fuzz) repetition."
  in
  Cmdliner.Arg.(
    value & pos 0 (conv (parse, Format.pp_print_string)) "fig8"
    & info [] ~docv:"fig8|crash-fuzz|KERNEL" ~doc)

let sample_twice target =
  let scale = W.Suite.bench_scale in
  let what, rep =
    match target with
    | "fig8" ->
      ("fig8 session mix", fun () -> List.iter run_kernel (W.Suite.all ~scale ()))
    | "crash-fuzz" -> ("crash-fuzz repetition", crash_fuzz)
    | name ->
      (name ^ " session mix", fun () -> run_kernel (W.Suite.by_name ~scale name))
  in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle sample);
  let tick = { Unix.it_interval = interval_s; it_value = interval_s } in
  let cpu0 = Sys.time () in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  for _ = 1 to 2 do
    rep ()
  done;
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  Printf.printf
    "hotspots: %s x2, %d samples in %.2f s of CPU time (the timer \
     asks for one per %.1f ms; the kernel's tick may space them wider)\n"
    what !samples (Sys.time () -. cpu0) (1000. *. interval_s);
  print_endline
    "OCaml 5 runs signal handlers at safepoints (allocations, function \
     entries, loop back-edges): self shares lean toward functions that \
     contain them; trust the inclusive shares.";
  print_top "self (innermost frame)" self;
  print_top "inclusive (frame anywhere on the stack)" inclusive;
  true

let () =
  let info =
    Cli.info "bench/hotspots.exe"
      ~doc:"Host time inside the simulator, by function, from SIGPROF samples"
  in
  exit (Cli.eval (Cmdliner.Cmd.v info Cmdliner.Term.(const sample_twice $ target)))
