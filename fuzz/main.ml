(* Crash-consistency fuzzer CLI.

     dune exec fuzz/main.exe -- --seed 42 --budget 200

   Options:
     --seed N       base seed; trial k uses seed N+k (default 0)
     --budget N     total oracle executions before stopping (default 400)
     --jobs N       trial parallelism; never affects the report
                    (default: $CAPRI_JOBS if set, else the machine's
                    recommended domain count)
     --mode M       persist modes to exercise; repeatable, or a comma
                    list. capri | naive-sync | undo-sync | redo-nowb |
                    volatile | all (default: all). Volatile selects the
                    compiled-vs-source differential oracle; the other
                    four select the crash oracle.
     --max-schedules N   crash schedules per trial (default 24)
     --diff-combos N     compiler option combos per trial (default 4)
     --max-cores N       trial core counts cycle in 1..N (default 3)
     --no-shrink    report failures without minimising them
     --service      fuzz the capri.service layer instead: crash the
                    store mid-service (crash points aimed at region
                    boundaries, which on transactional stores bracket
                    the 2PC phases) and hold the serializability +
                    acked-durability oracle over every crash image
                    (--max-cores and --diff-combos do not apply;
                    non-recoverable modes are skipped)
     --max-txns N   (--service) max multi-key txns per trial store
                    (default 2; 0 disables transactions)
     --min-txns N   (--service) floor for the per-trial txn draw
                    (default 0); --min-txns 1 makes every trial a 2PC
                    crash campaign
     --steal        (--service) serve every trial through the
                    work-stealing scheduler (random core count and
                    quantum; half the trials multi-tenant, some with
                    hot-key 2PC), so crashes land inside deque critical
                    sections and steal windows

   The report goes to stdout; the exit status is 1 iff any oracle
   failed. Every failure carries a repro line: the exact --seed plus
   every non-default flag that shapes the trial, which replays it in
   isolation. *)

module Campaign = Capri_fuzz.Campaign
module Service_fuzz = Capri_fuzz.Service_fuzz
module Persist = Capri_arch.Persist

let usage =
  "usage: fuzz/main.exe [--seed N] [--budget N] [--jobs N] [--mode M]\n\
  \                     [--max-schedules N] [--diff-combos N]\n\
  \                     [--max-cores N] [--no-shrink] [--service]\n\
  \                     [--max-txns N] [--min-txns N] [--steal]\n"

let bad msg =
  prerr_string (msg ^ "\n" ^ usage);
  exit 2

let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> bad (Printf.sprintf "%s expects an integer, got %S" flag v)

let modes_arg v =
  String.split_on_char ',' v
  |> List.concat_map (fun name ->
         match String.lowercase_ascii (String.trim name) with
         | "" -> []
         | "all" -> Persist.all_modes
         | m -> (
           match Persist.mode_of_string m with
           | Some mode -> [ mode ]
           | None -> bad (Printf.sprintf "unknown mode %S" name)))

let () =
  let seed = ref Campaign.default_cfg.Campaign.seed in
  let budget = ref Campaign.default_cfg.Campaign.budget in
  let jobs = ref 0 in
  let modes = ref [] in
  let max_schedules = ref Campaign.default_cfg.Campaign.max_schedules in
  let diff_combos = ref Campaign.default_cfg.Campaign.diff_combos in
  let max_cores = ref Campaign.default_cfg.Campaign.max_cores in
  let shrink = ref true in
  let service = ref false in
  let steal = ref false in
  let max_txns = ref Service_fuzz.default_cfg.Service_fuzz.max_txns in
  let min_txns = ref Service_fuzz.default_cfg.Service_fuzz.min_txns in
  let split_eq a =
    (* accept --flag=value *)
    match String.index_opt a '=' with
    | Some i when String.length a > 2 && a.[0] = '-' ->
      Some (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
    | _ -> None
  in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
      print_string usage;
      exit 0
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--budget" :: v :: rest ->
      budget := int_arg "--budget" v;
      parse rest
    | "--jobs" :: v :: rest ->
      jobs := int_arg "--jobs" v;
      parse rest
    | "--mode" :: v :: rest ->
      modes := !modes @ modes_arg v;
      parse rest
    | "--max-schedules" :: v :: rest ->
      max_schedules := int_arg "--max-schedules" v;
      parse rest
    | "--diff-combos" :: v :: rest ->
      diff_combos := int_arg "--diff-combos" v;
      parse rest
    | "--max-cores" :: v :: rest ->
      max_cores := int_arg "--max-cores" v;
      parse rest
    | "--max-txns" :: v :: rest ->
      max_txns := int_arg "--max-txns" v;
      parse rest
    | "--min-txns" :: v :: rest ->
      min_txns := int_arg "--min-txns" v;
      parse rest
    | "--no-shrink" :: rest ->
      shrink := false;
      parse rest
    | "--service" :: rest ->
      service := true;
      parse rest
    | "--steal" :: rest ->
      steal := true;
      parse rest
    | a :: rest -> (
      match split_eq a with
      | Some (flag, value) -> parse (flag :: value :: rest)
      | None -> bad (Printf.sprintf "unknown argument %S" a))
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs = if !jobs > 0 then !jobs else Capri_util.Pool.default_jobs () in
  let modes = if !modes = [] then Persist.all_modes else !modes in
  if !steal && not !service then bad "--steal requires --service";
  if !service then begin
    let cfg =
      {
        Service_fuzz.default_cfg with
        Service_fuzz.seed = !seed;
        budget = max 1 !budget;
        jobs;
        modes;
        max_schedules = max 1 !max_schedules;
        max_txns = max 0 !max_txns;
        min_txns = max 0 !min_txns;
        steal = !steal;
        shrink = !shrink;
      }
    in
    let report = Service_fuzz.run cfg in
    print_string (Service_fuzz.render report);
    exit (if report.Service_fuzz.failures = [] then 0 else 1)
  end;
  let cfg =
    {
      Campaign.default_cfg with
      Campaign.seed = !seed;
      budget = max 1 !budget;
      jobs;
      modes;
      max_schedules = max 1 !max_schedules;
      diff_combos = max 0 !diff_combos;
      max_cores = max 1 !max_cores;
      shrink = !shrink;
    }
  in
  let report = Campaign.run cfg in
  print_string (Campaign.render report);
  exit (if report.Campaign.failures = [] then 0 else 1)
