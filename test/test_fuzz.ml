(* The crash-consistency fuzzing subsystem: schedule enumeration
   sanity, shrinker unit tests, campaign determinism/reproducibility,
   the compiled-vs-source differential property over the full compiler
   option matrix, and the oracle-sensitivity check (an injected
   recovery bug must be caught, shrunk, and seed-reproducible). *)

open Capri
module Fz = Capri_fuzz
module Gen = Capri_workloads.Gen
open Helpers

(* ---------------- program generator ---------------- *)

(* [leaf] runs inside caller loops, so it must not write a caller's loop
   counter or data-loop bound. Seed 1970 calls [leaf] from [main]'s
   third-level loop, whose counter is r18: a [leaf] loop counting in r18
   would never let it end, and every qcheck property drawing the seed
   would fail with [Livelock]. *)
let test_gen_seed_1970_halts () =
  let program = Gen.program_of_seed 1970 in
  let threads = [ Executor.main_thread program ] in
  let run mode program =
    match Executor.run (Executor.start ~mode ~program ~threads ()) with
    | Executor.Finished r -> r
    | Executor.Crashed _ -> Alcotest.fail "unexpected crash"
    | exception Executor.Livelock { steps; _ } ->
      Alcotest.failf "seed 1970 (%s) did not halt within %d steps"
        (Persist.mode_name mode) steps
  in
  let source = run Persist.Volatile program in
  let compiled = run Persist.Capri (compile program).Compiled.program in
  Alcotest.(check (list int)) "compiled outputs = source outputs"
    source.Executor.outputs.(0) compiled.Executor.outputs.(0)

(* ---------------- schedule enumeration ---------------- *)

let test_schedule_observe () =
  let program, _ = sum_program ~n:12 () in
  let compiled = compile program in
  let reference, info = Fz.Schedule.observe compiled in
  Alcotest.(check int) "totals agree" reference.Executor.instrs
    info.Fz.Schedule.total;
  Alcotest.(check bool) "has boundaries" true
    (info.Fz.Schedule.boundaries <> []);
  Alcotest.(check bool) "boundaries ascending and in range" true
    (let rec ok = function
       | a :: (b :: _ as rest) -> a < b && ok rest
       | [ b ] -> b <= info.Fz.Schedule.total
       | [] -> true
     in
     ok info.Fz.Schedule.boundaries)

let test_schedule_enumerate () =
  let program, _ = sum_program ~n:12 () in
  let compiled = compile program in
  let _, info = Fz.Schedule.observe compiled in
  let schedules = Fz.Schedule.enumerate info in
  Alcotest.(check bool) "non-empty" true (schedules <> []);
  Alcotest.(check bool) "instruction 0 covered" true
    (List.mem [ 0 ] schedules);
  Alcotest.(check bool) "covers every boundary" true
    (List.for_all
       (fun b ->
         List.exists (function [ p ] -> p = b | _ -> false) schedules)
       info.Fz.Schedule.boundaries);
  Alcotest.(check bool) "has multi-crash schedules" true
    (List.exists (fun s -> List.length s >= 2) schedules);
  Alcotest.(check bool) "all points within the run" true
    (List.for_all
       (List.for_all (fun p -> p >= 0 && p <= info.Fz.Schedule.total))
       schedules);
  (* a max_schedules budget is a hard cap *)
  List.iter
    (fun cap ->
      let n = List.length (Fz.Schedule.enumerate ~max_schedules:cap info) in
      Alcotest.(check bool)
        (Printf.sprintf "cap %d respected (got %d)" cap n)
        true (n <= cap && n > 0))
    [ 4; 10; 17 ]

(* ---------------- shrinking ---------------- *)

let test_shrink_schedule () =
  (* "Failure" = some crash point >= 7: the unique minimal reproducer
     is [7]. *)
  let test s = List.exists (fun x -> x >= 7) s in
  let shrunk = Fz.Shrink.shrink_schedule ~test [ 3; 9; 1; 12 ] in
  Alcotest.(check (list int)) "minimal schedule" [ 7 ] shrunk;
  (* non-reproducing input comes back unchanged *)
  Alcotest.(check (list int))
    "non-repro unchanged" [ 1; 2 ]
    (Fz.Shrink.shrink_schedule ~test [ 1; 2 ])

let test_shrink_prog () =
  let prog = Gen.generate ~cores:2 11 in
  (* "Failure" = main still has at least one statement: minimal is a
     single statement in main and empty workers. *)
  let test p = List.length (List.hd p.Gen.thread_stmts) >= 1 in
  let minimized, keep = Fz.Shrink.shrink_prog ~test prog in
  Alcotest.(check int) "main reduced to one stmt" 1
    (List.length (List.hd minimized.Gen.thread_stmts));
  Alcotest.(check int) "workers emptied" 0
    (List.length (List.nth minimized.Gen.thread_stmts 1));
  Alcotest.(check int) "keep arity" (Gen.cores prog) (List.length keep);
  (* the keep mask reproduces the minimized program exactly *)
  Alcotest.(check bool) "restrict(keep) = minimized" true
    (Gen.restrict prog ~keep = minimized)

(* ---------------- campaign determinism and reproducibility -------- *)

let small_cfg =
  {
    Fz.Campaign.default_cfg with
    Fz.Campaign.seed = 3;
    budget = 30;
    max_schedules = 6;
    diff_combos = 2;
    max_cores = 2;
  }

let test_trial_deterministic () =
  let a = Fz.Campaign.run_trial small_cfg 1 in
  let b = Fz.Campaign.run_trial small_cfg 1 in
  Alcotest.(check bool) "same trial twice" true (a = b);
  (* trial k under base seed s is trial 0 under seed s + k: the repro
     contract behind every reported failure *)
  let shifted =
    Fz.Campaign.run_trial
      { small_cfg with Fz.Campaign.seed = small_cfg.Fz.Campaign.seed + 1 }
      0
  in
  Alcotest.(check bool) "seed-shift reproduces" true (a = shifted)

(* Every service-fuzz trial serves the store shape its seed drew before
   the recovery pool width was removed: the 128 shape lines of seeds
   0..63, stealing off then on, digest to the value recorded from the
   earlier code's lines with their " rjobs=N" token cut out. Dropping
   the retired width draw would shift every later draw and fail this. *)
let test_service_trial_shapes_pinned () =
  let lines =
    List.concat_map
      (fun steal ->
        List.init 64 (fun seed ->
            Fz.Service_fuzz.service_string
              (Fz.Service_fuzz.service_cfg
                 { Fz.Service_fuzz.default_cfg with Fz.Service_fuzz.steal }
                 seed)))
      [ false; true ]
  in
  Alcotest.(check string) "trial shapes" "c0daefb27cc7a6d463481c02b16628fc"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_campaign_clean_and_parallel () =
  let report = Fz.Campaign.run { small_cfg with Fz.Campaign.jobs = 1 } in
  Alcotest.(check int) "no failures" 0 (List.length report.Fz.Campaign.failures);
  Alcotest.(check bool) "budget respected" true
    (report.Fz.Campaign.executions >= small_cfg.Fz.Campaign.budget);
  let par = Fz.Campaign.run { small_cfg with Fz.Campaign.jobs = 3 } in
  Alcotest.(check string) "jobs=3 report identical"
    (Fz.Campaign.render report)
    (Fz.Campaign.render par)

(* ---------------- differential oracle: full option matrix ---------- *)

let test_differential_option_matrix () =
  Alcotest.(check int) "16 pass combinations" 16
    (List.length Fz.Oracle.option_matrix);
  List.iter
    (fun seed ->
      let cores = 1 + (seed mod 3) in
      let prog = Gen.generate ~cores seed in
      let program, threads = Gen.lower prog in
      let source = Fz.Oracle.run_source ~threads program in
      List.iter
        (fun threshold ->
          List.iter
            (fun o ->
              let o = Capri_compiler.Options.with_threshold threshold o in
              match
                Fz.Oracle.check_differential ~threads ~source o program
              with
              | Ok () -> ()
              | Error e ->
                Alcotest.failf "seed %d, %s: %s" seed
                  (Fz.Oracle.options_string o) e)
            Fz.Oracle.option_matrix)
        [ 16; 256 ])
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14 ]

(* ---------------- oracle sensitivity ---------------- *)

(* The campaign a repro line configures, read by fuzz/main.exe's own
   parser: a flag the line leaves out takes the executable's default, so
   the replay fails if that flag mattered. *)
let replay repro =
  match Cli.of_words Cli.campaign (String.split_on_char ' ' repro) with
  | Ok campaign -> campaign
  | Error msg -> Alcotest.failf "repro %S does not parse: %s" repro msg

let check_repro_names repro flags =
  List.iter
    (fun flag ->
      Alcotest.(check bool)
        (Printf.sprintf "repro %S names %s" repro flag)
        true (contains repro flag))
    flags

(* Dropped undo is only observable when a dirty line of a still-open
   region reaches NVM before the crash AND the replay re-reads it: the
   region must dirty more lines than the caches hold and its stores must
   be read-modify-write. Direct-mapped two-line caches provide the
   pressure; generated [RmwSweep] statements over a 64-word slice
   provide the in-region RMW density (atomics cannot — every Atomic_rmw
   is a boundary trigger, so each one gets a region of its own). With
   undo application disabled (the injected bug), the campaign must catch
   the corruption, shrink it, and report a seed-reproducible
   counterexample. Guards against a vacuously-green fuzzer. *)
let tiny_config =
  {
    Config.sim_default with
    Config.l1_lines = 2;
    l1_ways = 1;
    l2_lines = 2;
    l2_ways = 1;
    dram_cache_lines = 2;
  }

let sensitivity_cfg =
  {
    Fz.Campaign.default_cfg with
    Fz.Campaign.seed = 33;
    budget = 30;
    jobs = 1;
    (* undo application is what Capri-mode recovery relies on; Redo_nowb
       never needs undo (writebacks are dropped) and Volatile never
       crashes, so pin the mode under test *)
    modes = [ Persist.Capri ];
    config = tiny_config;
    max_cores = 2;
    array_words = 64;
    max_schedules = 28;
    diff_combos = 0;
  }

let test_oracle_catches_dropped_undo () =
  (* sanity: the same campaign is clean without the fault *)
  let clean = Fz.Campaign.run sensitivity_cfg in
  Alcotest.(check int) "clean without fault" 0
    (List.length clean.Fz.Campaign.failures);
  let report =
    Atomic.set Persist.fault_drop_undo true;
    Fun.protect
      ~finally:(fun () -> Atomic.set Persist.fault_drop_undo false)
      (fun () -> Fz.Campaign.run sensitivity_cfg)
  in
  match report.Fz.Campaign.failures with
  | [] -> Alcotest.fail "fuzzer failed to catch the dropped-undo bug"
  | f :: _ ->
    Alcotest.(check bool) "crash oracle flagged it" true
      (f.Fz.Campaign.oracle = "crash(capri)");
    Alcotest.(check bool) "shrunk schedule non-empty" true
      (f.Fz.Campaign.shrunk_schedule <> []);
    Alcotest.(check bool) "shrunk no larger than original" true
      (List.length f.Fz.Campaign.shrunk_schedule
       <= List.length f.Fz.Campaign.schedule);
    Alcotest.(check bool) "minimized program rendered" true
      (f.Fz.Campaign.minimized <> "");
    (* The repro line names every non-default flag the campaign ran
       with, and a trial configured from that line alone reproduces the
       failure with the fault still armed. The cache shape and slice
       size have no flag; they stay as the campaign had them. *)
    check_repro_names f.Fz.Campaign.repro
      [
        Printf.sprintf "--seed %d " f.Fz.Campaign.trial_seed;
        "--mode capri"; "--max-cores 2"; "--max-schedules 28";
        "--diff-combos 0";
      ];
    let trial_cfg =
      match replay f.Fz.Campaign.repro with
      | Cli.Kernel cfg ->
        { cfg with
          Fz.Campaign.config = tiny_config; array_words = 64; shrink = false }
      | Cli.Service _ -> Alcotest.fail "the repro line names a service campaign"
    in
    let repro =
      Atomic.set Persist.fault_drop_undo true;
      Fun.protect
        ~finally:(fun () -> Atomic.set Persist.fault_drop_undo false)
        (fun () -> Fz.Campaign.run_trial trial_cfg 0)
    in
    (match repro.Fz.Campaign.t_failures with
     | [] -> Alcotest.fail "the repro line did not reproduce the failure"
     | rf :: _ ->
       Alcotest.(check int) "same trial seed" f.Fz.Campaign.trial_seed
         rf.Fz.Campaign.trial_seed;
       Alcotest.(check string) "same oracle" f.Fz.Campaign.oracle
         rf.Fz.Campaign.oracle;
       Alcotest.(check (list int)) "same schedule" f.Fz.Campaign.schedule
         rf.Fz.Campaign.schedule);
    (* and the fix (not dropping undo) makes the exact schedule pass *)
    let fixed = Fz.Campaign.run_trial trial_cfg 0 in
    Alcotest.(check int) "clean once undo is applied again" 0
      (List.length fixed.Fz.Campaign.t_failures)

(* The 2PC analogue of the dropped-undo check: with
   Kvstore.fault_skip_decision armed, a participant treats its own vote
   as the global decision — a yes-voting shard applies its items even
   when the coordinator aborts the transaction. The service campaign's
   serializability oracle must catch the half-applied transaction,
   shrink the workload to a minimal unit subset, and the reported trial
   seed must reproduce it (and run clean once the knob is off). *)
let txn_sensitivity_cfg =
  {
    Fz.Service_fuzz.default_cfg with
    Fz.Service_fuzz.seed = 21;
    budget = 40;
    jobs = 1;
    modes = [ Persist.Capri ];
    max_shards = 2;
    max_ops = 10;
    max_schedules = 3;
    min_txns = 1;
    max_txns = 3;
  }

let test_oracle_catches_skipped_decision () =
  let module Svc = Capri_service in
  let armed f =
    Atomic.set Svc.Kvstore.fault_skip_decision true;
    Fun.protect
      ~finally:(fun () -> Atomic.set Svc.Kvstore.fault_skip_decision false)
      f
  in
  (* sanity: the same campaign is clean without the fault *)
  let clean = Fz.Service_fuzz.run txn_sensitivity_cfg in
  Alcotest.(check int) "clean without fault" 0
    (List.length clean.Fz.Service_fuzz.failures);
  let report = armed (fun () -> Fz.Service_fuzz.run txn_sensitivity_cfg) in
  match report.Fz.Service_fuzz.failures with
  | [] -> Alcotest.fail "fuzzer failed to catch the skipped 2PC decision"
  | f :: _ ->
    Alcotest.(check bool) "workload shrunk to a unit subset" true
      (f.Fz.Service_fuzz.kept_requests <> []);
    (* the reported trial seed reproduces in isolation, fault armed *)
    let trial_cfg =
      {
        txn_sensitivity_cfg with
        Fz.Service_fuzz.seed = f.Fz.Service_fuzz.trial_seed;
        shrink = false;
      }
    in
    let repro = armed (fun () -> Fz.Service_fuzz.run_trial trial_cfg 0) in
    (match repro.Fz.Service_fuzz.t_failures with
    | [] -> Alcotest.fail "trial seed did not reproduce the failure"
    | rf :: _ ->
      Alcotest.(check int) "same trial seed" f.Fz.Service_fuzz.trial_seed
        rf.Fz.Service_fuzz.trial_seed);
    (* honouring the decision again makes the same trial pass *)
    let fixed = Fz.Service_fuzz.run_trial trial_cfg 0 in
    Alcotest.(check int) "clean once the decision is honoured" 0
      (List.length fixed.Fz.Service_fuzz.t_failures)

(* The compaction analogue: with Persist.fault_tear_compaction armed,
   journal truncation physically reclaims the entries being compacted
   BEFORE the checkpoint cursor commits — the torn ordering the
   single-word cursor flip exists to rule out. Acked responses vanish
   from the durable ledger, so the campaign's prefix/completion oracle
   must fire (half its trials draw a live compact interval), the
   reported repro line must replay it in isolation, and the same trial
   runs clean once truncation is failure-atomic again. The campaign
   runs with a non-default mode list — one RNG draws every mode's crash
   points in list order, so the repro line has to carry it. *)
let compaction_sensitivity_cfg =
  {
    Fz.Service_fuzz.default_cfg with
    Fz.Service_fuzz.seed = 11;
    budget = 40;
    jobs = 1;
    modes = [ Persist.Undo_sync; Persist.Capri ];
    max_schedules = 3;
    max_txns = 0;
    shrink = false;
  }

let test_oracle_catches_torn_compaction () =
  let armed f =
    Atomic.set Persist.fault_tear_compaction true;
    Fun.protect
      ~finally:(fun () -> Atomic.set Persist.fault_tear_compaction false)
      f
  in
  (* sanity: the same campaign is clean when the cursor flip is atomic *)
  let clean = Fz.Service_fuzz.run compaction_sensitivity_cfg in
  Alcotest.(check int) "clean without fault" 0
    (List.length clean.Fz.Service_fuzz.failures);
  let report =
    armed (fun () -> Fz.Service_fuzz.run compaction_sensitivity_cfg)
  in
  match report.Fz.Service_fuzz.failures with
  | [] -> Alcotest.fail "fuzzer failed to catch the torn compaction"
  | f :: _ ->
    check_repro_names f.Fz.Service_fuzz.repro
      [
        Printf.sprintf "--seed %d " f.Fz.Service_fuzz.trial_seed;
        "--mode undo-sync,capri"; "--max-schedules 3"; "--max-txns 0";
      ];
    let trial_cfg =
      match replay f.Fz.Service_fuzz.repro with
      | Cli.Service cfg -> { cfg with Fz.Service_fuzz.shrink = false }
      | Cli.Kernel _ -> Alcotest.fail "the repro line names a kernel campaign"
    in
    let repro = armed (fun () -> Fz.Service_fuzz.run_trial trial_cfg 0) in
    (match repro.Fz.Service_fuzz.t_failures with
    | [] -> Alcotest.fail "the repro line did not reproduce the failure"
    | rf :: _ ->
      Alcotest.(check int) "same trial seed" f.Fz.Service_fuzz.trial_seed
        rf.Fz.Service_fuzz.trial_seed;
      Alcotest.(check string) "same mode"
        (Persist.mode_name f.Fz.Service_fuzz.mode)
        (Persist.mode_name rf.Fz.Service_fuzz.mode);
      Alcotest.(check (list int)) "same schedule" f.Fz.Service_fuzz.schedule
        rf.Fz.Service_fuzz.schedule);
    let fixed = Fz.Service_fuzz.run_trial trial_cfg 0 in
    Alcotest.(check int) "clean once truncation is failure-atomic" 0
      (List.length fixed.Fz.Service_fuzz.t_failures)

(* fuzz/main.exe's flags, read by the term its repro lines replay
   through: absent flags take the kernel campaign's defaults for both
   campaigns (a service trial enumerates 24 schedules, not
   [Service_fuzz.default_cfg]'s 6), [--mode] is a repeatable comma list
   where [all] stands for every mode, and out-of-range or contradictory
   flags are refused. *)
let test_campaign_term () =
  let parse args = Cli.of_words Cli.campaign ("fuzz/main.exe" :: args) in
  (match parse [] with
   | Ok (Cli.Kernel c) ->
     Alcotest.(check bool) "defaults" true
       ({ c with Fz.Campaign.jobs = 1 } = Fz.Campaign.default_cfg)
   | _ -> Alcotest.fail "no flags: the default kernel campaign");
  (match
     parse
       [ "--service"; "--mode"; "Undo_Sync, capri"; "--mode=all";
         "--max-txns=0" ]
   with
   | Ok (Cli.Service c) ->
     Alcotest.(check (list string)) "modes in order"
       ([ "undo-sync"; "capri" ] @ List.map Persist.mode_name Persist.all_modes)
       (List.map Persist.mode_name c.Fz.Service_fuzz.modes);
     Alcotest.(check int) "schedules" 24 c.Fz.Service_fuzz.max_schedules;
     Alcotest.(check int) "txns" 0 c.Fz.Service_fuzz.max_txns
   | _ -> Alcotest.fail "a service campaign");
  List.iter
    (fun args ->
      Alcotest.(check bool) (String.concat " " args) true
        (Result.is_error (parse args)))
    [ [ "--seed=-1" ]; [ "--steal" ]; [ "--mode"; "capri,bogus" ];
      [ "--service"; "--min-txns"; "3"; "--max-txns"; "2" ] ]

let suite =
  [
    Alcotest.test_case "schedule: observe" `Quick test_schedule_observe;
    Alcotest.test_case "schedule: enumerate" `Quick test_schedule_enumerate;
    Alcotest.test_case "shrink: schedules" `Quick test_shrink_schedule;
    Alcotest.test_case "shrink: programs" `Quick test_shrink_prog;
    Alcotest.test_case "campaign: trial determinism" `Quick
      test_trial_deterministic;
    Alcotest.test_case "campaign: clean + parallel-invariant" `Quick
      test_campaign_clean_and_parallel;
    Alcotest.test_case "differential: all 16 option combos" `Quick
      test_differential_option_matrix;
    Alcotest.test_case "oracle catches dropped undo" `Quick
      test_oracle_catches_dropped_undo;
    Alcotest.test_case "oracle catches skipped 2PC decision" `Quick
      test_oracle_catches_skipped_decision;
    Alcotest.test_case "oracle catches torn compaction" `Quick
      test_oracle_catches_torn_compaction;
    Alcotest.test_case "gen: seed 1970 halts" `Quick test_gen_seed_1970_halts;
    Alcotest.test_case "service campaign: trial shapes pinned" `Quick
      test_service_trial_shapes_pinned;
    Alcotest.test_case "campaign term: defaults, modes, refusals" `Quick
      test_campaign_term;
  ]
