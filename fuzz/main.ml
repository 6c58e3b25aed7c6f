(* Crash-consistency fuzzer CLI.

     dune exec fuzz/main.exe -- --seed 42 --budget 200

   The flags are Cli.campaign's; `--help` documents them. *)

module Campaign = Capri_fuzz.Campaign
module Service_fuzz = Capri_fuzz.Service_fuzz

let man =
  [
    `S Cmdliner.Manpage.s_description;
    `P
      "Generates random multi-threaded programs, compiles each under a \
       seed-chosen compiler configuration, and checks two oracles over \
       enumerated crash schedules: crash + recover + resume equals the \
       crash-free run, and compiled equals source under volatile \
       execution. With $(b,--service) it fuzzes the serving layer instead.";
    `P
      "Counts are never clamped: a budget, job, schedule or core count \
       below 1, a negative count, or a $(b,--min-txns) above \
       $(b,--max-txns) is a usage error.";
    `P
      "The report goes to stdout and is identical at any $(b,--jobs). \
       Every failure carries a repro line: the exact $(b,--seed) plus \
       every non-default flag that shapes the trial, which replays it in \
       isolation.";
  ]

let run = function
  | Cli.Kernel cfg ->
    let report = Campaign.run cfg in
    print_string (Campaign.render report);
    report.Campaign.failures = []
  | Cli.Service cfg ->
    let report = Service_fuzz.run cfg in
    print_string (Service_fuzz.render report);
    report.Service_fuzz.failures = []

let () =
  let info = Cli.info "fuzz/main.exe" ~man ~doc:"Crash-consistency fuzzer" in
  exit (Cli.eval (Cmdliner.Cmd.v info Cmdliner.Term.(const run $ Cli.campaign)))
