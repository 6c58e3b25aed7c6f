(* Serving-layer benchmark table.

     dune exec bench/service.exe -- --shards 4 --ops 200 --crash 2 --jobs 8

   Rows cover mode x mix; the table is byte-identical at any --jobs. *)

let () =
  let shards = ref 2 in
  let ops = ref 120 in
  let crashes = ref 2 in
  let txns = ref 4 in
  let jobs = ref 0 in
  let rolling = ref false in
  let period = ref 8 in
  let noisy = ref false in
  let hot_key = ref false in
  let recovery = ref false in
  let keys = ref 1000 in
  let compact = ref 32 in
  let tenants = ref 3 in
  let cores = ref 2 in
  let quantum = ref 4 in
  let skew = ref 1.2 in
  let hot_txns = ref 8 in
  let steal = ref "both" in
  let spec =
    [
      ("--shards", Arg.Set_int shards, "N  shard cores (default 2)");
      ("--ops", Arg.Set_int ops, "N  requests per shard (default 120)");
      ( "--crash",
        Arg.Set_int crashes,
        "N  crashes injected per trial (default 2; volatile runs crash-free)"
      );
      ( "--txns",
        Arg.Set_int txns,
        "N  cross-shard 2PC transactions per trial (default 4; 0 disables)" );
      ( "--rolling",
        Arg.Set rolling,
        "  rolling-crash availability scenario: crashes land while an \
         open-loop client keeps offering load; reports measured \
         unavailability windows, p99 during vs. outside recovery, and the \
         Capri run's windowed timeline" );
      ( "--recovery",
        Arg.Set recovery,
        "  recovery-at-scale scenario: a store bulk-loaded with --keys \
         committed pairs per shard serves 1x/2x/5x/10x request histories \
         and crashes late in each run; reports recovery blocks, durable \
         journal tail, replayed log records and the modeled restart bill \
         with journal compaction off vs. on (every --compact commits)" );
      ( "--keys",
        Arg.Set_int keys,
        "N  preloaded keys per shard for --recovery (default 1000; \
         production scale is 100000+)" );
      ( "--compact",
        Arg.Set_int compact,
        "N  journal compact interval for the --recovery compaction-on \
         rows (default 32)" );
      ( "--noisy",
        Arg.Set noisy,
        "  noisy-neighbor scenario: one zipfian-heavy tenant against \
         uniform neighbors on the work-stealing scheduler; per-tenant \
         served/p99 and the worst shard's peak queue depth, stealing on \
         vs. off" );
      ( "--hot-key",
        Arg.Set hot_key,
        "  contended hot-key scenario: tenants CAS-update one shared key \
         through 2PC transactions; commit/abort ratio and p99 under \
         pinned / steal-off / steal-on scheduling" );
      ( "--tenants",
        Arg.Set_int tenants,
        "N  tenants for --noisy/--hot-key (default 3)" );
      ( "--cores",
        Arg.Set_int cores,
        "N  scheduler worker cores for --noisy/--hot-key (default 2)" );
      ( "--quantum",
        Arg.Set_int quantum,
        "N  requests per scheduler slice (default 4)" );
      ( "--skew",
        Arg.Set_float skew,
        "S  zipfian skew of the noisy tenant (default 1.2)" );
      ( "--hot-txns",
        Arg.Set_int hot_txns,
        "N  hot-key transactions for --hot-key (default 8)" );
      ( "--steal",
        Arg.Symbol
          ([ "on"; "off"; "both" ], fun s -> steal := s),
        "  which --noisy variants to run: on, off (static pinning \
         reference) or both (default)" );
      ( "--period",
        Arg.Set_int period,
        "N  open-loop arrival period in cycles for --rolling, and the \
         modeled arrival period of the --noisy queue-depth column \
         (default 8)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N  trial parallelism (default: CAPRI_JOBS or the machine)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "usage: bench/service.exe [--shards N] [--ops N] [--crash N] [--txns N] \
     [--rolling] [--recovery] [--keys N] [--compact N] [--noisy] [--hot-key] \
     [--tenants N] [--cores N] [--quantum N] [--skew S] [--hot-txns N] \
     [--steal on|off|both] [--period N] [--jobs N]";
  let jobs = if !jobs > 0 then !jobs else Capri_util.Pool.default_jobs () in
  let module B = Capri_bench.Service_bench in
  let usage_error msg =
    Printf.eprintf "%s: %s\n" Sys.argv.(0) msg;
    exit 2
  in
  (* every count is checked before any trial runs; none is clamped *)
  let at_least least what name v =
    if v < least then
      usage_error
        (Printf.sprintf "option '%s': expected %s, got %d" name what v)
  in
  List.iter
    (fun (name, v) -> at_least 1 "a positive integer" name !v)
    [ ("--shards", shards); ("--ops", ops); ("--keys", keys);
      ("--compact", compact); ("--period", period); ("--cores", cores);
      ("--quantum", quantum); ("--hot-txns", hot_txns) ];
  List.iter
    (fun (name, v) -> at_least 0 "a non-negative integer" name !v)
    [ ("--crash", crashes); ("--txns", txns) ];
  if !noisy || !hot_key then
    at_least 2 "at least 2 tenants" "--tenants" !tenants;
  (* every trial's store must fit the machine layout's cores, checked
     before any trial runs *)
  let print sc =
    List.iter
      (fun cell ->
        let cfg = sc.B.cfg cell in
        try Capri_service.Server.check_cores cfg
        with Invalid_argument msg ->
          usage_error
            (Printf.sprintf "option '%s': a trial needs %s"
               (if cfg.Capri_service.Server.sched = None then "--shards"
                else "--cores")
               msg))
      sc.B.cells;
    print_string (snd (B.table ~jobs sc))
  in
  let shards = !shards and ops = !ops in
  if !recovery then begin
    match
      B.recovery ~shards ~keys:!keys ~ops ~factors:[ 1; 2; 5; 10 ]
        ~interval:!compact
    with
    | sc -> print sc
    | exception Invalid_argument msg -> usage_error ("option '--keys': " ^ msg)
  end
  else if !rolling then
    print (B.rolling ~shards ~ops ~crashes:!crashes ~period:!period)
  else if !noisy then begin
    let variants =
      match !steal with
      | "on" -> [ true ]
      | "off" -> [ false ]
      | _ -> [ false; true ]
    in
    print
      (B.noisy ~shards ~ops ~cores:!cores ~quantum:!quantum ~tenants:!tenants
         ~skew:!skew ~period:!period ~variants)
  end
  else if !hot_key then
    print
      (B.hot_key ~shards ~ops ~cores:!cores ~quantum:!quantum
         ~tenants:!tenants ~skew:!skew ~hot_txns:!hot_txns)
  else print (B.modes ~shards ~ops ~crashes:!crashes ~txns:!txns)
