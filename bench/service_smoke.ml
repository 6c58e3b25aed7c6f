(* service-smoke: the serving benchmark must be a pure scheduling change
   under parallelism. Render a small mode x mix table sequentially and
   under a 4-domain pool and require the output byte-identical; same for
   the rolling-crash availability scenario (its table embeds the
   windowed SLO timeline, so timeline and report determinism ride
   along). Runs as part of `dune runtest`. *)

module Slo = Capri_service.Slo

let check_identical what seq par =
  if seq <> par then begin
    Printf.eprintf "service-smoke: parallel %s differs from sequential:\n" what;
    prerr_endline "--- jobs=1 ---";
    prerr_string seq;
    prerr_endline "--- jobs=4 ---";
    prerr_string par;
    exit 1
  end

let () =
  let table jobs =
    Capri_bench.Service_bench.table ~jobs ~shards:2 ~ops:40 ~crashes:2 ~txns:2
  in
  let seq = table 1 in
  check_identical "table" seq (table 4);
  (* Sanity: all fifteen mode x mix rows rendered. *)
  let lines = String.split_on_char '\n' seq in
  assert (List.length (List.filter (fun l -> l <> "") lines) >= 15);
  (* Rolling-crash scenario: byte-identical at any --jobs, and every
     recoverable mode must report at least one measured unavailability
     window with its p99-during-recovery split. *)
  let rolling jobs =
    Capri_bench.Service_bench.rolling_table ~jobs ~shards:2 ~ops:40 ~crashes:2
      ~period:8
  in
  check_identical "rolling table" (rolling 1) (rolling 4);
  let rows =
    Capri_bench.Service_bench.rolling_rows ~jobs:1 ~shards:2 ~ops:40 ~crashes:2
      ~period:8
  in
  List.iter
    (fun r ->
      let rep = r.Capri_bench.Service_bench.report in
      assert (List.length rep.Slo.windows >= 1);
      assert (rep.Slo.down_cycles > 0);
      assert (rep.Slo.availability < 1.0);
      assert (rep.Slo.in_recovery = 0 || rep.Slo.p99_in > 0.0))
    rows;
  (* Recovery-at-scale scenario: byte-identical at any trial --jobs;
     with compaction on the durable journal tail — and with it the
     restart bill — must stay bounded by the compact interval while
     history grows 10x, where the compaction-off rows grow without
     bound. *)
  let module B = Capri_bench.Service_bench in
  let factors = [ 1; 2; 5; 10 ] in
  let interval = 16 in
  let recovery ~jobs =
    B.recovery_table ~jobs ~shards:2 ~keys:200 ~ops:20 ~factors ~interval
  in
  check_identical "recovery table" (recovery ~jobs:1) (recovery ~jobs:4);
  let rrows =
    B.recovery_rows ~jobs:1 ~shards:2 ~keys:200 ~ops:20 ~factors ~interval
  in
  let off, on = List.partition (fun r -> not r.B.v_compact) rrows in
  assert (List.length off = 4 && List.length on = 4);
  let tails rows = List.map (fun r -> r.B.v_tail) rows in
  (* off: the tail a restart re-serves grows with served history *)
  let off_tails = tails off in
  assert (List.sort compare off_tails = off_tails);
  assert (List.nth off_tails 3 > 4 * List.nth off_tails 0);
  (* on: bounded by the compact interval per core (2 cores) plus the
     outputs of the commit that crossed it, at any history length *)
  List.iter (fun t -> assert (t <= 2 * (interval + 8))) (tails on);
  let last l = List.nth l (List.length l - 1) in
  assert ((last on).B.v_recovery_cycles < (last off).B.v_recovery_cycles);
  (* Noisy-neighbor scenario: byte-identical at any --jobs, and under
     zipfian skew over >= 2 worker cores stealing must actually engage
     (>= 1 recorded steal) and strictly improve both the worst shard's
     peak queue depth and every tenant's p99 against the static-pinning
     reference serving the identical workload. *)
  let module B = Capri_bench.Service_bench in
  let noisy jobs =
    B.noisy_table ~jobs ~shards:6 ~ops:30 ~cores:4 ~quantum:4 ~tenants:3
      ~skew:3.0 ~period:120 ~variants:[ false; true ]
  in
  check_identical "noisy table" (noisy 1) (noisy 4);
  (match
     B.noisy_rows ~jobs:1 ~shards:6 ~ops:30 ~cores:4 ~quantum:4 ~tenants:3
       ~skew:3.0 ~period:120 ~variants:[ false; true ]
   with
  | [ off; on ] ->
    assert ((not off.B.n_steal) && on.B.n_steal);
    assert (off.B.n_steals = 0);
    assert (on.B.n_steals >= 1);
    assert (on.B.n_worst_depth < off.B.n_worst_depth);
    assert (Array.length on.B.n_tenants = Array.length off.B.n_tenants);
    Array.iteri
      (fun tn (served_off, p99_off) ->
        let served_on, p99_on = on.B.n_tenants.(tn) in
        (* same acked population per tenant, strictly better tail *)
        assert (served_on = served_off);
        assert (p99_on < p99_off))
      off.B.n_tenants
  | _ -> assert false);
  (* Hot-key contention: the 2PC outcome split is a scheduling
     invariant — pinned, steal-off and steal-on resolve the same
     commits and aborts — and the table is --jobs-pure too. *)
  let hot jobs =
    B.hot_table ~jobs ~shards:4 ~ops:16 ~cores:2 ~quantum:4 ~tenants:3
      ~skew:1.2 ~hot_txns:6
  in
  check_identical "hot-key table" (hot 1) (hot 4);
  (match
     B.hot_rows ~jobs:1 ~shards:4 ~ops:16 ~cores:2 ~quantum:4 ~tenants:3
       ~skew:1.2 ~hot_txns:6
   with
  | [ pinned; steal_off; steal_on ] ->
    let outcome r =
      ( r.B.h_stats.Capri_service.Sla.txn_commits,
        r.B.h_stats.Capri_service.Sla.txn_aborts )
    in
    assert (outcome pinned = outcome steal_off);
    assert (outcome pinned = outcome steal_on);
    assert (fst (outcome pinned) + snd (outcome pinned) = 6)
  | _ -> assert false);
  print_endline
    "service-smoke: jobs=4 matches sequential (table + rolling + recovery + \
     noisy + hot-key)"
