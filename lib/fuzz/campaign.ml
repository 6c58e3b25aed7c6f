(* The fuzzing campaign driver.

   A campaign is a sequence of trials. Trial state is a pure function of
   its trial seed (base seed + trial index) and the flags that shape a
   trial: program shape, core count, compiler options and crash
   schedules all derive from them, so any failure reproduces from its
   repro line — `--seed <trial_seed> --budget 1 --mode <mode>` plus
   those flags — alone.

   Each trial: generate a program, compile it under a seed-chosen
   crash-capable configuration, enumerate crash schedules from one traced
   reference run, then drive the crash oracle (every schedule x every
   crash-recoverable mode requested) and the differential oracle
   (compiled vs uncompiled source IR, both Volatile, across a seed-
   rotated slice of the 16-combo option matrix). The first failure stops
   the trial and is shrunk to a minimal schedule + program.

   Budget = total oracle executions (crash checks + differential
   checks), spent by {!drive}, the wave loop this campaign shares with
   Service_fuzz. *)

module Arch = Capri_arch
module Opt = Capri_compiler.Options
module Pipeline = Capri_compiler.Pipeline
module Gen = Capri_workloads.Gen
module Pool = Capri_util.Pool
module Recovery = Capri_runtime.Recovery

(* ---------------- configuration ---------------- *)

type cfg = {
  seed : int;
  budget : int;
  jobs : int;
  modes : Arch.Persist.mode list;
  config : Arch.Config.t;
  max_cores : int;
  array_words : int;  (* per-thread slice size handed to the generator *)
  max_schedules : int;
  diff_combos : int;
  shrink : bool;
}

let default_cfg =
  {
    seed = 0;
    budget = 400;
    jobs = 1;
    modes = Arch.Persist.all_modes;
    config = Arch.Config.sim_default;
    max_cores = 3;
    array_words = 32;
    max_schedules = 24;
    diff_combos = 4;
    shrink = true;
  }

(* ---------------- failures and reports ---------------- *)

type failure = {
  trial_seed : int;
  cores : int;
  oracle : string;  (* "crash(<mode>)" or "differential" *)
  detail : string;  (* failing options / schedule provenance *)
  reason : string;
  schedule : int list;  (* original failing schedule; [] for differential *)
  shrunk_schedule : int list;
  shrunk_keep : int list list;  (* Gen.restrict keep lists, [] = unshrunk *)
  minimized : string;  (* pretty-printed minimized program *)
  repro : string;
}

type trial = {
  t_seed : int;
  t_cores : int;
  t_schedules : int;
  t_crash_checks : int;
  t_diff_checks : int;
  t_failures : failure list;
}

type report = {
  cfg : cfg;
  trials : int;
  schedules : int;
  crash_checks : int;
  diff_checks : int;
  executions : int;
  failures : failure list;
}

(* ---------------- one trial ---------------- *)

let cores_of_seed cfg seed = 1 + (seed mod max 1 cfg.max_cores)

(* Seed-rotated slice of the option matrix for the differential oracle:
   the full 16-combo sweep lives in the qcheck property; the campaign
   samples a few combos per trial so every combo is reached across a
   handful of trials. *)
let diff_options_of_seed cfg seed =
  let matrix = Array.of_list Oracle.option_matrix in
  let n = Array.length matrix in
  let ts = Array.of_list Oracle.thresholds in
  List.init (min cfg.diff_combos n) (fun i ->
      let o = matrix.((seed + (i * 5)) mod n) in
      Opt.with_threshold ts.((seed + i) mod Array.length ts) o)

let pp_prog_string prog = Format.asprintf "%a" Gen.pp_prog prog

let shrink_crash_failure cfg ~mode ~options ~threads ~reference ~compiled prog
    schedule =
  let test_schedule compiled' threads' reference' s =
    match
      Oracle.check_crash ~reference:reference' compiled'
        (Recovery.machine ~config:cfg.config ~mode ~threads:threads' compiled')
        s
    with
    | Error _ -> true
    | Ok () -> false
  in
  let shrunk =
    Shrink.shrink_schedule
      ~test:(test_schedule compiled threads reference)
      schedule
  in
  (* Program reduction re-lowers and recompiles each candidate; a crash
     point past the end of a shorter program simply never fires, so the
     shrunk schedule stays valid as a test input. *)
  let test_prog p =
    match Gen.lower p with
    | exception _ -> false
    | program', threads' -> (
      match Pipeline.compile options program' with
      | exception _ -> false
      | compiled' -> (
        match Schedule.observe ~config:cfg.config ~threads:threads' compiled' with
        | exception _ -> false
        | reference', _ -> test_schedule compiled' threads' reference' shrunk))
  in
  let minimized, keep = Shrink.shrink_prog ~test:test_prog prog in
  (* The smaller program may admit an even smaller schedule. *)
  let final_schedule =
    match Gen.lower minimized with
    | exception _ -> shrunk
    | program', threads' -> (
      match Pipeline.compile options program' with
      | exception _ -> shrunk
      | compiled' -> (
        match Schedule.observe ~config:cfg.config ~threads:threads' compiled' with
        | exception _ -> shrunk
        | reference', _ ->
          Shrink.shrink_schedule
            ~test:(test_schedule compiled' threads' reference')
            shrunk))
  in
  (final_schedule, keep, minimized)

let shrink_diff_failure cfg ~options ~threads:_ prog =
  let test_prog p =
    match Gen.lower p with
    | exception _ -> false
    | program', threads' -> (
      match Oracle.run_source ~config:cfg.config ~threads:threads' program' with
      | exception _ -> false
      | source' -> (
        match
          Oracle.check_differential ~config:cfg.config ~threads:threads'
            ~source:source' options program'
        with
        | Error _ -> true
        | Ok () -> false))
  in
  Shrink.shrink_prog ~test:test_prog prog

(* The command line that replays trial [seed] alone: the failing mode
   plus every non-default flag that shapes the trial — the core count,
   the schedule enumeration and the differential combos. *)
let repro_string cfg seed mode =
  let flag name value default =
    if value = default then "" else Printf.sprintf " --%s %d" name value
  in
  Printf.sprintf "fuzz/main.exe --seed %d --budget 1 --mode %s%s%s%s" seed
    (Arch.Persist.mode_name mode)
    (flag "max-cores" cfg.max_cores default_cfg.max_cores)
    (flag "max-schedules" cfg.max_schedules default_cfg.max_schedules)
    (flag "diff-combos" cfg.diff_combos default_cfg.diff_combos)

let run_trial cfg k =
  let seed = cfg.seed + k in
  let cores = cores_of_seed cfg seed in
  let prog = Gen.generate ~cores ~array_words:cfg.array_words seed in
  let fail ?(schedule = []) ?(shrunk_schedule = []) ?(shrunk_keep = [])
      ?(minimized = "") ~oracle ~detail ~repro reason =
    {
      trial_seed = seed;
      cores;
      oracle;
      detail;
      reason;
      schedule;
      shrunk_schedule;
      shrunk_keep;
      minimized;
      repro;
    }
  in
  match Gen.lower prog with
  | exception e ->
    {
      t_seed = seed;
      t_cores = cores;
      t_schedules = 0;
      t_crash_checks = 0;
      t_diff_checks = 0;
      t_failures =
        [
          fail ~oracle:"generator" ~detail:"lower"
            ~repro:(Printf.sprintf "Gen.lower (Gen.generate ~cores:%d %d)" cores seed)
            (Printexc.to_string e);
        ];
    }
  | program, threads -> (
    let options = Oracle.crash_options_of_seed seed in
    match Pipeline.compile options program with
    | exception e ->
      {
        t_seed = seed;
        t_cores = cores;
        t_schedules = 0;
        t_crash_checks = 0;
        t_diff_checks = 0;
        t_failures =
          [
            fail ~oracle:"compiler"
              ~detail:(Oracle.options_string options)
              ~repro:(repro_string cfg seed Arch.Persist.Capri)
              (Printexc.to_string e);
          ];
      }
    | compiled ->
      let reference, info =
        Schedule.observe ~config:cfg.config ~threads compiled
      in
      let schedules =
        Schedule.enumerate ~max_schedules:cfg.max_schedules info
      in
      let crash_modes = List.filter Arch.Persist.crash_recoverable cfg.modes in
      let crash_checks = ref 0 in
      let failure = ref None in
      (* crash oracle: every schedule under every requested mode, each
         mode's schedules driving one machine (the reference has its
         own) *)
      List.iter
        (fun mode ->
          if !failure = None && schedules <> [] then begin
            let machine =
              Recovery.machine ~config:cfg.config ~mode ~threads compiled
            in
            List.iter
              (fun schedule ->
                if !failure = None then begin
                  incr crash_checks;
                  match
                    Oracle.check_crash ~reference compiled machine schedule
                  with
                  | Ok () -> ()
                  | Error reason ->
                    let shrunk_schedule, shrunk_keep, minimized =
                      if cfg.shrink then
                        let s, k, m =
                          shrink_crash_failure cfg ~mode ~options ~threads
                            ~reference ~compiled prog schedule
                        in
                        (s, k, pp_prog_string m)
                      else (schedule, [], "")
                    in
                    failure :=
                      Some
                        (fail ~schedule ~shrunk_schedule ~shrunk_keep ~minimized
                           ~oracle:
                             (Printf.sprintf "crash(%s)"
                                (Arch.Persist.mode_name mode))
                           ~detail:(Oracle.options_string options)
                           ~repro:(repro_string cfg seed mode) reason)
                end)
              schedules
          end)
        crash_modes;
      (* differential oracle: gated on Volatile membership *)
      let diff_checks = ref 0 in
      if !failure = None && List.mem Arch.Persist.Volatile cfg.modes then begin
        let source = Oracle.run_source ~config:cfg.config ~threads program in
        List.iter
          (fun opts ->
            if !failure = None then begin
              incr diff_checks;
              match
                Oracle.check_differential ~config:cfg.config ~threads ~source
                  opts program
              with
              | Ok () -> ()
              | Error reason ->
                let minimized, keep =
                  if cfg.shrink then
                    let m, k =
                      shrink_diff_failure cfg ~options:opts ~threads prog
                    in
                    (pp_prog_string m, k)
                  else ("", [])
                in
                failure :=
                  Some
                    (fail ~shrunk_keep:keep ~minimized ~oracle:"differential"
                       ~detail:(Oracle.options_string opts)
                       ~repro:(repro_string cfg seed Arch.Persist.Volatile)
                       reason)
            end)
          (diff_options_of_seed cfg seed)
      end;
      {
        t_seed = seed;
        t_cores = cores;
        t_schedules = List.length schedules;
        t_crash_checks = !crash_checks;
        t_diff_checks = !diff_checks;
        t_failures = Option.to_list !failure;
      })

(* ---------------- the campaign loop ---------------- *)

let drive ~jobs ~budget ~cost trial =
  Pool.with_pool ~jobs (fun pool ->
      (* One wave of [jobs] speculative trials at a time. Results are
         folded in strictly ascending trial order and the budget cut
         depends only on those in-order totals, so the wave size never
         changes the outcome — only how much past-the-cut work is thrown
         away. *)
      let consume (spent, acc) t =
        if spent >= budget then (spent, acc) else (spent + cost t, t :: acc)
      in
      let rec wave next spent acc =
        let spent, acc =
          List.fold_left consume (spent, acc)
            (Pool.map_list pool trial (List.init jobs (( + ) next)))
        in
        if spent >= budget then List.rev acc else wave (next + jobs) spent acc
      in
      wave 0 0 [])

let run cfg =
  let cfg = { cfg with jobs = max 1 cfg.jobs; budget = max 1 cfg.budget } in
  let trials =
    drive ~jobs:cfg.jobs ~budget:cfg.budget
      ~cost:(fun t -> t.t_crash_checks + t.t_diff_checks)
      (run_trial cfg)
  in
  let sum f = List.fold_left (fun n t -> n + f t) 0 trials in
  let crash_checks = sum (fun t -> t.t_crash_checks) in
  let diff_checks = sum (fun t -> t.t_diff_checks) in
  {
    cfg;
    trials = List.length trials;
    schedules = sum (fun t -> t.t_schedules);
    crash_checks;
    diff_checks;
    executions = crash_checks + diff_checks;
    failures = List.concat_map (fun t -> t.t_failures) trials;
  }

(* ---------------- rendering ---------------- *)

let render_failure buf i f =
  Buffer.add_string buf
    (Printf.sprintf "failure #%d: %s oracle, trial seed %d (%d cores)\n" i
       f.oracle f.trial_seed f.cores);
  Buffer.add_string buf (Printf.sprintf "  options:  %s\n" f.detail);
  Buffer.add_string buf (Printf.sprintf "  reason:   %s\n" f.reason);
  if f.schedule <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  schedule: [%s] -> shrunk [%s]\n"
         (String.concat "; " (List.map string_of_int f.schedule))
         (String.concat "; " (List.map string_of_int f.shrunk_schedule)));
  if f.shrunk_keep <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  kept stmts: %s\n"
         (String.concat " | "
            (List.map
               (fun ks -> String.concat "," (List.map string_of_int ks))
               f.shrunk_keep)));
  if f.minimized <> "" then begin
    Buffer.add_string buf "  minimized program:\n";
    String.split_on_char '\n' f.minimized
    |> List.iter (fun line ->
           if line <> "" then
             Buffer.add_string buf (Printf.sprintf "    %s\n" line))
  end;
  Buffer.add_string buf (Printf.sprintf "  repro:    %s\n" f.repro)

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "fuzz campaign: seed=%d budget=%d modes=%s\n\
        trials=%d schedules=%d crash-checks=%d diff-checks=%d executions=%d\n"
       r.cfg.seed r.cfg.budget
       (String.concat "," (List.map Arch.Persist.mode_name r.cfg.modes))
       r.trials r.schedules r.crash_checks r.diff_checks r.executions);
  if r.failures = [] then Buffer.add_string buf "failures: none\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "failures: %d\n" (List.length r.failures));
    List.iteri (fun i f -> render_failure buf (i + 1) f) r.failures
  end;
  Buffer.contents buf
