(* Serving-layer benchmark table.

     dune exec bench/service.exe -- --shards 4 --ops 200 --crash 2 --jobs 8

   Rows cover mode x mix; the table is byte-identical at any --jobs. *)

open Cmdliner
module B = Capri_bench.Service_bench

type scenario = Modes | Rolling | Recovery | Noisy | Hot_key

let scenario =
  let named name doc = Arg.info [ name ] ~doc in
  Arg.(
    value
    & vflag Modes
        [
          ( Rolling,
            named "rolling"
              "Rolling-crash availability scenario: crashes land while an \
               open-loop client keeps offering load; reports measured \
               unavailability windows, p99 during vs. outside recovery, and \
               the Capri run's windowed timeline." );
          ( Recovery,
            named "recovery"
              "Recovery-at-scale scenario: a store bulk-loaded with \
               $(b,--keys) committed pairs per shard serves 1x/2x/5x/10x \
               request histories and crashes late in each run; reports \
               recovery blocks, durable journal tail, replayed log records \
               and the modeled restart bill with journal compaction off vs. \
               on (every $(b,--compact) commits)." );
          ( Noisy,
            named "noisy"
              "Noisy-neighbor scenario: one zipfian-heavy tenant against \
               uniform neighbors on the work-stealing scheduler; per-tenant \
               served/p99 and the worst shard's peak queue depth, stealing \
               on vs. off." );
          ( Hot_key,
            named "hot-key"
              "Contended hot-key scenario: tenants CAS-update one shared key \
               through 2PC transactions; commit/abort ratio and p99 under \
               pinned / steal-off / steal-on scheduling." );
        ])

let count range default name docv doc =
  Arg.(value & opt range default & info [ name ] ~docv ~doc)

let txns =
  count Cli.non_negative 4 "txns" "N"
    "Cross-shard 2PC transactions per trial; 0 disables them."

let keys =
  count Cli.positive 1000 "keys" "N" "Preloaded keys per shard for $(b,--recovery)."

let compact =
  count Cli.positive 32 "compact" "N"
    "Journal compact interval of the $(b,--recovery) compaction-on rows."

let tenants =
  count Cli.positive 3 "tenants" "N"
    "Tenants for $(b,--noisy) and $(b,--hot-key), at least 2."

let cores =
  count Cli.positive 2 "cores" "N"
    "Scheduler cores for $(b,--noisy) and $(b,--hot-key)."

let quantum = count Cli.positive 4 "quantum" "N" "Requests per scheduler slice."

let skew =
  count Cli.non_negative_float 1.2 "skew" "S" "Zipfian skew of the noisy tenant."

let hot_txns = count Cli.positive 8 "hot-txns" "N" "Transactions for $(b,--hot-key)."

let steal =
  count
    Arg.(enum [ ("on", [ true ]); ("off", [ false ]); ("both", [ false; true ]) ])
    [ false; true ] "steal" "on|off|both"
    "Which $(b,--noisy) variants to run: stealing on, off (the static \
     pinning reference) or both."

let period =
  count Cli.positive 8 "period" "N"
    "Open-loop arrival period in cycles for $(b,--rolling), and the modeled \
     arrival period of the $(b,--noisy) queue-depth column."

(* The scenario, checked before any trial runs: the neighbor scenarios
   need a neighbor, a preload must fit the heap, and every trial's store
   must fit the machine layout's cores. *)
let plan scenario shards ops crashes txns keys compact tenants cores quantum
    skew hot_txns variants period =
  let checked sc =
    let too_wide cell =
      let cfg = sc.B.cfg cell in
      match Capri_service.Server.check_cores cfg with
      | () -> None
      | exception Invalid_argument msg ->
        Some
          (Printf.sprintf "option '%s': a trial needs %s"
             (if cfg.Capri_service.Server.sched = None then "--shards"
              else "--cores")
             msg)
    in
    match List.find_map too_wide sc.B.cells with
    | Some msg -> `Error (true, msg)
    | None -> `Ok (fun jobs -> snd (B.table ~jobs sc))
  in
  match scenario with
  | (Noisy | Hot_key) when tenants < 2 ->
    `Error
      ( true,
        Printf.sprintf "option '--tenants': expected at least 2 tenants, got %d"
          tenants )
  | Modes -> checked (B.modes ~shards ~ops ~crashes ~txns)
  | Rolling -> checked (B.rolling ~shards ~ops ~crashes ~period)
  | Recovery -> (
    match
      B.recovery ~shards ~keys ~ops ~factors:[ 1; 2; 5; 10 ] ~interval:compact
    with
    | sc -> checked sc
    | exception Invalid_argument msg -> `Error (true, "option '--keys': " ^ msg))
  | Noisy ->
    checked
      (B.noisy ~shards ~ops ~cores ~quantum ~tenants ~skew ~period ~variants)
  | Hot_key ->
    checked (B.hot_key ~shards ~ops ~cores ~quantum ~tenants ~skew ~hot_txns)

let run table jobs =
  match table jobs with
  | rendered ->
    print_string rendered;
    true
  | exception B.Violated msg ->
    prerr_endline msg;
    false

let () =
  let term =
    Term.(
      const run
      $ ret
          (const plan $ scenario $ Cli.shards $ Cli.ops ~default:120
         $ Cli.crashes $ txns $ keys $ compact $ tenants $ cores $ quantum
         $ skew $ hot_txns $ steal $ period)
      $ Cli.jobs)
  in
  exit
    (Cli.eval
       (Cmd.v
          (Cli.info "bench/service.exe"
             ~doc:"Serving-layer benchmark tables, one scenario per run")
          term))
