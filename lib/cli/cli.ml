(* The one front door. Every executable declares its flags over these
   converters and terms and evaluates through [eval], so a range is
   checked in one place and an outcome has one exit code. *)

open Cmdliner
module Persist = Capri_arch.Persist
module Campaign = Capri_fuzz.Campaign
module Service_fuzz = Capri_fuzz.Service_fuzz

(* ---------------- converters ---------------- *)

let at_least of_string pp least what =
  let parse s =
    match of_string s with
    | Some n when n >= least -> Ok n
    | Some _ | None -> Error (Printf.sprintf "expected %s, got %S" what s)
  in
  Arg.conv' (parse, pp)

let positive = at_least int_of_string_opt Format.pp_print_int 1 "a positive integer"

let non_negative =
  at_least int_of_string_opt Format.pp_print_int 0 "a non-negative integer"

let non_negative_float =
  let finite s =
    Option.bind (float_of_string_opt s) (fun f ->
        if Float.is_finite f then Some f else None)
  in
  at_least finite Format.pp_print_float 0.0 "a finite non-negative number"

let parse_mode s =
  match Persist.mode_of_string (String.lowercase_ascii (String.trim s)) with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown mode %S (expected %s)" s
         (String.concat ", " (List.map Persist.mode_name Persist.all_modes)))

let pp_mode ppf m = Format.pp_print_string ppf (Persist.mode_name m)
let persist_mode = Arg.conv' (parse_mode, pp_mode)

(* A comma list of mode lists: a blank element is none, [all] every mode. *)
let persist_modes =
  let element s =
    match String.trim s with
    | "" -> Ok []
    | "all" -> Ok Persist.all_modes
    | name -> Result.map (fun m -> [ m ]) (parse_mode name)
  in
  Arg.list (Arg.conv' (element, Format.pp_print_list pp_mode))

let kernel = Arg.enum (List.map (fun n -> (n, n)) Capri_workloads.Suite.names)

(* ---------------- flags declared once ---------------- *)

let jobs =
  let env = Cmd.Env.info "CAPRI_JOBS" ~doc:"Default for $(b,--jobs)." in
  let doc =
    "Spread the independent runs over $(docv) domains; the output is \
     byte-identical at any count."
  in
  let absent = "the machine's recommended domain count" in
  Arg.(
    value
    & opt positive (Domain.recommended_domain_count ())
    & info [ "jobs" ] ~env ~docv:"N" ~doc ~absent)

let count range default name doc =
  Arg.(value & opt range default & info [ name ] ~docv:"N" ~doc)

let shards = count positive 2 "shards" "Shard cores serving the store."
let ops ~default = count positive default "ops" "Requests per shard."

let crashes =
  count non_negative 2 "crash"
    "Crashes injected per run (volatile runs are crash-free)."

let focus =
  let doc =
    "Persistence mode of the focus run, the one traces and reports describe: \
     capri, naive-sync, undo-sync, redo-nowb or volatile."
  in
  Arg.(value & opt persist_mode Persist.Capri & info [ "mode" ] ~docv:"MODE" ~doc)

(* ---------------- fuzz campaigns ---------------- *)

type campaign = Kernel of Campaign.cfg | Service of Service_fuzz.cfg

let campaign =
  let k = Campaign.default_cfg and s = Service_fuzz.default_cfg in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let modes =
    let doc =
      "Persist modes to exercise, repeatable: a comma list of capri, \
       naive-sync, undo-sync, redo-nowb and volatile, or all. Volatile \
       selects the compiled-vs-source differential oracle, the others the \
       crash oracle."
    in
    Arg.(
      value & opt_all persist_modes []
      & info [ "mode" ] ~docv:"M" ~doc ~absent:"all")
  in
  let make seed budget jobs modes max_schedules diff_combos max_cores no_shrink
      service max_txns min_txns steal =
    let modes = List.concat_map List.concat modes in
    let modes = if modes = [] then Persist.all_modes else modes in
    let shrink = not no_shrink in
    if steal && not service then
      `Error (true, "option '--steal' requires '--service'")
    else if min_txns > max_txns then
      `Error
        ( true,
          Printf.sprintf "option '--min-txns': %d exceeds '--max-txns' %d"
            min_txns max_txns )
    else if service then
      `Ok
        (Service
           { s with
             Service_fuzz.seed; budget; jobs; modes; max_schedules; max_txns;
             min_txns; steal; shrink })
    else
      `Ok
        (Kernel
           { k with
             Campaign.seed; budget; jobs; modes; max_schedules; diff_combos;
             max_cores; shrink })
  in
  Term.(
    ret
      (const make
      $ count non_negative k.Campaign.seed "seed"
          "Base seed; trial $(i,k) uses seed $(docv) + $(i,k)."
      $ count positive k.Campaign.budget "budget"
          "Total oracle executions before stopping."
      $ jobs $ modes
      $ count positive k.Campaign.max_schedules "max-schedules"
          "Crash schedules per trial (and mode, with $(b,--service))."
      $ count non_negative k.Campaign.diff_combos "diff-combos"
          "Compiler option combos per trial (differential oracle)."
      $ count positive k.Campaign.max_cores "max-cores"
          "Trial core counts cycle in 1..$(docv)."
      $ flag "no-shrink" "Report failures without minimising them."
      $ flag "service"
          "Fuzz the capri.service layer instead: crash the store mid-service \
           (crash points aimed at region boundaries, which on transactional \
           stores bracket the 2PC phases) and hold the serializability + \
           acked-durability oracle over every crash image. $(b,--max-cores) \
           and $(b,--diff-combos) do not apply; non-recoverable modes are \
           skipped."
      $ count non_negative s.Service_fuzz.max_txns "max-txns"
          "With $(b,--service): most multi-key transactions per trial \
           store; 0 disables them."
      $ count non_negative s.Service_fuzz.min_txns "min-txns"
          "With $(b,--service): floor of the per-trial transaction draw; 1 \
           makes every trial a 2PC crash campaign."
      $ flag "steal"
          "With $(b,--service): serve every trial through the work-stealing \
           scheduler (random core count and quantum; half the trials \
           multi-tenant, some with hot-key 2PC), so crashes land inside \
           deque critical sections and steal windows."))

(* ---------------- evaluation ---------------- *)

let exits =
  let failed =
    "when a check failed (an oracle violation, a failing campaign, a missed \
     SLO) or the input program is bad (an IR parse error, a program that \
     never halts)."
  in
  Cmd.Exit.
    [ info ok ~doc:"on success."; info 1 ~doc:failed;
      info cli_error
        ~doc:"on a usage error: a bad flag, value or environment variable.";
      info internal_error ~doc:"on an internal error (a bug)." ]

let info ?version ?man ~doc name = Cmd.info ?version ?man ~exits ~doc name

(* A usage error is one line however long (no margin to wrap at). A
   program that never halts is bad input, reported in one line like a
   parse error; any other exception escaping a command is a bug. *)
let eval cmd =
  let name = Cmd.name cmd in
  let err = Format.formatter_of_out_channel stderr in
  Format.pp_set_margin err 10_000;
  match Cmd.eval_value ~err ~catch:false cmd with
  | Ok (`Ok true | `Help | `Version) -> Cmd.Exit.ok
  | Ok (`Ok false) -> 1
  | Error (`Parse | `Term) -> Cmd.Exit.cli_error
  | Error `Exn -> Cmd.Exit.internal_error
  | exception (Capri_runtime.Executor.Livelock _ as e) ->
    Printf.eprintf "%s: %s\n" name (Printexc.to_string e);
    1
  | exception e ->
    Printf.eprintf "%s: internal error, uncaught exception:\n%s\n" name
      (Printexc.to_string e);
    Cmd.Exit.internal_error

let of_words term words =
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  let name = match words with name :: _ -> name | [] -> "" in
  let cmd = Cmd.v (Cmd.info name) term in
  let argv = Array.of_list words in
  match Cmd.eval_value ~help:ppf ~err:ppf ~env:(fun _ -> None) ~argv cmd with
  | Ok (`Ok v) -> Ok v
  | Ok (`Help | `Version) | Error _ ->
    Format.pp_print_flush ppf ();
    Error (Buffer.contents buf)
