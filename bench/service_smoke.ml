(* service-smoke: the serving benchmark must be a pure scheduling change
   under parallelism. Render each scenario's small table sequentially and
   under a 4-domain pool, require the output byte-identical and equal to
   its pinned digest, then check the scenario's claims over the rows that
   table was rendered from (the rolling table embeds the windowed SLO
   timeline, so timeline and report determinism ride along). Runs as part
   of `dune runtest`. *)

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

(* MD5 of each scenario's rendered table at the sizes below: a change
   meant to keep the output must keep every constant; one meant to change
   it re-records them and says why. *)
let check_pinned what expected rendered =
  let got = Digest.to_hex (Digest.string rendered) in
  if got <> expected then begin
    Printf.eprintf "service-smoke: %s digest %s, expected %s:\n%s" what got
      expected rendered;
    exit 1
  end

(* Render a scenario at --jobs 1 and 4, require identical and pinned
   bytes, and hand back the rows the jobs-1 table was rendered from. *)
let rendered what digest sc =
  let rows, seq = Capri_bench.Service_bench.table ~jobs:1 sc in
  check_identical what seq (snd (Capri_bench.Service_bench.table ~jobs:4 sc));
  check_pinned what digest seq;
  rows

let () =
  let module B = Capri_bench.Service_bench in
  (* all fifteen mode x mix rows rendered *)
  let rows =
    rendered "table" "648beee0b0c85bec6e76a529bafbdf44"
      (B.modes ~shards:2 ~ops:40 ~crashes:2 ~txns:2)
  in
  assert (List.length rows = 15);
  (* Rolling-crash scenario: every recoverable mode must report at least
     one measured unavailability window with its p99-during-recovery
     split. *)
  List.iter
    (fun (_, r) ->
      let rep = r.B.report in
      assert (List.length rep.Slo.windows >= 1);
      assert (rep.Slo.down_cycles > 0);
      assert (rep.Slo.availability < 1.0);
      assert (rep.Slo.in_recovery = 0 || rep.Slo.p99_in > 0.0))
    (rendered "rolling table" "5f41ca6db887b732720eefe769a3dd3f"
       (B.rolling ~shards:2 ~ops:40 ~crashes:2 ~period:8));
  (* Recovery-at-scale scenario: with compaction on the durable journal
     tail — and with it the restart bill — must stay bounded by the
     compact interval while history grows 10x, where the compaction-off
     rows grow without bound. *)
  let interval = 16 in
  let rrows =
    rendered "recovery table" "2bcd77ef18db90655ba505e4c59b10b2"
      (B.recovery ~shards:2 ~keys:200 ~ops:20 ~factors:[ 1; 2; 5; 10 ]
         ~interval)
  in
  let off, on = List.partition (fun ((compact, _), _) -> not compact) rrows in
  assert (List.length off = 4 && List.length on = 4);
  let tails rows = List.map (fun (_, r) -> r.B.v_tail) rows in
  (* off: the tail a restart re-serves grows with served history *)
  let off_tails = tails off in
  assert (List.sort compare off_tails = off_tails);
  assert (List.nth off_tails 3 > 4 * List.nth off_tails 0);
  (* on: bounded by the compact interval per core (2 cores) plus the
     outputs of the commit that crossed it, at any history length *)
  List.iter (fun t -> assert (t <= 2 * (interval + 8))) (tails on);
  let last l = snd (List.nth l (List.length l - 1)) in
  assert ((last on).B.v_recovery_cycles < (last off).B.v_recovery_cycles);
  (* Noisy-neighbor scenario: under zipfian skew over >= 2 worker cores
     stealing must actually engage (>= 1 recorded steal) and strictly
     improve both the worst shard's peak queue depth and every tenant's
     p99 against the static-pinning reference serving the identical
     workload. *)
  (match
     rendered "noisy table" "62a036f89c4a9290976fae464c0e276f"
       (B.noisy ~shards:6 ~ops:30 ~cores:4 ~quantum:4 ~tenants:3 ~skew:3.0
          ~period:120 ~variants:[ false; true ])
   with
  | [ (false, off); (true, on) ] ->
    assert (off.B.n_steals = 0);
    assert (on.B.n_steals >= 1);
    assert (on.B.n_worst_depth < off.B.n_worst_depth);
    assert (List.length on.B.n_tenants = List.length off.B.n_tenants);
    List.iter2
      (fun (t_off : Slo.tenant_row) (t_on : Slo.tenant_row) ->
        (* same acked population per tenant, strictly better tail *)
        assert (t_on.Slo.t_served = t_off.Slo.t_served);
        assert (t_on.Slo.t_p99 < t_off.Slo.t_p99))
      off.B.n_tenants on.B.n_tenants
  | _ -> assert false);
  (* Hot-key contention: the 2PC outcome split is a scheduling
     invariant — pinned, steal-off and steal-on resolve the same
     commits and aborts. *)
  (match
     rendered "hot-key table" "c34b9ee95772ad8a5fa75a1a77f61a63"
       (B.hot_key ~shards:4 ~ops:16 ~cores:2 ~quantum:4 ~tenants:3 ~skew:1.2
          ~hot_txns:6)
   with
  | [ (_, pinned); (_, steal_off); (_, steal_on) ] ->
    let outcome (s, _) =
      (s.Capri_service.Sla.txn_commits, s.Capri_service.Sla.txn_aborts)
    in
    assert (outcome pinned = outcome steal_off);
    assert (outcome pinned = outcome steal_on);
    assert (fst (outcome pinned) + snd (outcome pinned) = 6)
  | _ -> assert false);
  print_endline
    "service-smoke: jobs=4 matches sequential (table + rolling + recovery + \
     noisy + hot-key)"
