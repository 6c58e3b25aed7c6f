(* capri.service: the WSP-backed KV serving layer — crash-free
   correctness, the acked-durability oracle under crash schedules in
   every recoverable persistence mode, admission control, and
   determinism of the whole harness. *)

module Arch = Capri_arch
open Capri_service

let mk ?(shards = 2) ?(ops = 60) ?(mix = Client.A) ?(mode = Arch.Persist.Capri)
    ?(seed = 11) ?(loop = Client.Closed) ?admit ?(batch = 8) ?(txns = 0)
    ?(txn_items = 2) () =
  let client =
    {
      Client.default with
      mix;
      ops_per_shard = ops;
      key_space = 24;
      seed;
      loop;
      txns;
      txn_items;
    }
  in
  { Server.default_cfg with shards; client; mode; admit_depth = admit; batch }

let check_ok t outcome =
  match Server.check t outcome with
  | Ok () -> ()
  | Error v -> Alcotest.failf "oracle: %a" Sla.pp_violation v

let test_wire_round_trip () =
  List.iter
    (fun (status, payload) ->
      let w = Wire.response ~status ~payload in
      let status', payload' = Wire.decode_response w in
      Alcotest.(check bool) "status" true (status = status');
      Alcotest.(check int) "payload" payload payload')
    [
      (Wire.Ok, 0); (Wire.Ok, Wire.payload_limit - 1); (Wire.Miss, 0);
      (Wire.Cas_fail, 12345); (Wire.Committed, 1); (Wire.Aborted, 7);
    ];
  Alcotest.check_raises "key 0 rejected"
    (Invalid_argument "Wire: keys start at 1 (0 is the empty slot)")
    (fun () ->
      ignore
        (Wire.encode_request
           { Wire.op = Wire.Get; key = 0; value = 0; expected = 0 }))

let test_crash_free_matches_model () =
  List.iter
    (fun mix ->
      let t = Server.plan (mk ~mix ()) in
      let outcome = Server.run t in
      check_ok t outcome;
      let s = Server.stats t outcome in
      Alcotest.(check int) "all acked" (2 * 60) s.Sla.ops;
      Alcotest.(check bool) "throughput positive" true (s.Sla.throughput > 0.0);
      Alcotest.(check bool) "p50 <= p99" true (s.Sla.p50 <= s.Sla.p99))
    [ Client.A; Client.B; Client.C ]

let test_handler_paths () =
  (* Scripted requests covering every handler branch, checked against the
     model through the oracle's completion check. *)
  let reqs =
    [|
      [|
        { Wire.op = Wire.Get; key = 3; value = 0; expected = 0 };  (* miss *)
        { Wire.op = Wire.Put; key = 3; value = 7; expected = 0 };
        { Wire.op = Wire.Get; key = 3; value = 0; expected = 0 };  (* hit *)
        { Wire.op = Wire.Cas; key = 3; value = 9; expected = 7 };  (* win *)
        { Wire.op = Wire.Cas; key = 3; value = 5; expected = 7 };  (* fail *)
        { Wire.op = Wire.Delete; key = 3; value = 0; expected = 0 };
        { Wire.op = Wire.Get; key = 3; value = 0; expected = 0 };  (* deleted *)
        { Wire.op = Wire.Delete; key = 3; value = 0; expected = 0 };  (* miss *)
        { Wire.op = Wire.Cas; key = 3; value = 1; expected = 1 };  (* miss *)
        { Wire.op = Wire.Put; key = 3; value = 2; expected = 0 };  (* revive *)
        (* collision chain: 3 and 3+capacity hash alike *)
        { Wire.op = Wire.Put; key = 19; value = 4; expected = 0 };
        { Wire.op = Wire.Get; key = 19; value = 0; expected = 0 };
      |];
    |]
  in
  let kv = Kvstore.build ~key_space:24 ~requests:reqs () in
  let compiled = Capri_compiler.Pipeline.compile Capri_compiler.Options.default
      kv.Kvstore.program
  in
  let t =
    { Server.cfg = mk ~shards:1 (); kv; compiled; rejected = 0; rejected_at = []; workload = None }
  in
  let outcome = Server.run t in
  check_ok t outcome;
  let expected =
    Sla.expected_responses ~key_space:24 reqs.(0) |> Array.to_list
  in
  Alcotest.(check (list int)) "responses" expected outcome.Server.final.(0)

(* Scripted 2PC: a transaction that commits (every participant votes
   yes) and one that aborts (a failing compare-and-swap votes no), with
   no single-key traffic in between. Checks the response streams against
   the protocol replay, the replay's decisions, the durable
   vote/decision records and the final tables. *)
let test_txn_commit_and_abort () =
  let marker tid count =
    { Wire.op = Wire.Txn; key = tid; value = count; expected = 0 }
  in
  let requests =
    [|
      [|
        { Wire.op = Wire.Put; key = 5; value = 3; expected = 0 };
        marker 1 1; marker 2 1;
      |];
      [| marker 1 2; marker 2 1 |];
    |]
  in
  let txns =
    [|
      {
        Wire.tid = 1;
        items =
          [|
            (* the single-key put above runs first, so this Cas matches
               the pre-transaction state: shard 0 votes yes *)
            (0, { Wire.op = Wire.Cas; key = 5; value = 8; expected = 3 });
            (1, { Wire.op = Wire.Put; key = 4; value = 9; expected = 0 });
            (1, { Wire.op = Wire.Get; key = 4; value = 0; expected = 0 });
          |];
      };
      {
        Wire.tid = 2;
        items =
          [|
            (* pre-txn value of key 5 is now 8 (txn 1 committed), so
               this vote is no and the whole transaction aborts *)
            (0, { Wire.op = Wire.Cas; key = 5; value = 1; expected = 999 });
            (1, { Wire.op = Wire.Put; key = 4; value = 11; expected = 0 });
          |];
      };
    |]
  in
  let kv = Kvstore.build ~txns ~key_space:24 ~requests () in
  let compiled =
    Capri_compiler.Pipeline.compile Capri_compiler.Options.default
      kv.Kvstore.program
  in
  let t = { Server.cfg = mk ~shards:2 (); kv; compiled; rejected = 0; rejected_at = []; workload = None } in
  let outcome = Server.run t in
  check_ok t outcome;
  (* the host replay agrees on the outcomes *)
  let p = Sla.replay kv in
  Alcotest.(check (list bool)) "decisions" [ true; false ]
    (Array.to_list (Sla.decisions p));
  let commits, aborts = Sla.txn_outcomes p in
  Alcotest.(check int) "commits" 1 commits;
  Alcotest.(check int) "aborts" 1 aborts;
  (* response streams: shard 0 = single-put ack, txn-1 cas ack, then
     Aborted; shard 1 = two item acks then Aborted; coordinator = one
     outcome per txn *)
  Alcotest.(check int) "shard 0 stream" 3
    (List.length outcome.Server.final.(0));
  Alcotest.(check int) "shard 1 stream" 3
    (List.length outcome.Server.final.(1));
  Alcotest.(check (list int)) "coordinator stream"
    [
      Wire.response ~status:Wire.Committed ~payload:1;
      Wire.response ~status:Wire.Aborted ~payload:2;
    ]
    outcome.Server.final.(2);
  (match List.rev outcome.Server.final.(0) with
  | aborted :: _ ->
    Alcotest.(check bool) "shard 0 answered Aborted for txn 2" true
      (Wire.decode_response aborted = (Wire.Aborted, 2))
  | [] -> Alcotest.fail "empty shard 0 stream");
  (* durable 2PC records and tables in the final memory *)
  let mem = outcome.Server.result.Capri_runtime.Executor.memory in
  Alcotest.(check int) "txn 1 decision committed" 1
    (Kvstore.ctrl_decision kv mem ~tid:1);
  Alcotest.(check int) "txn 2 decision aborted" 2
    (Kvstore.ctrl_decision kv mem ~tid:2);
  Alcotest.(check int) "txn 2 shard 0 voted no" 2
    (Kvstore.ctrl_vote kv mem ~tid:2 ~shard:0);
  Alcotest.(check int) "txn 2 shard 1 voted yes" 1
    (Kvstore.ctrl_vote kv mem ~tid:2 ~shard:1);
  Alcotest.(check int) "txn 1 shard 0 voted yes (winning cas)" 1
    (Kvstore.ctrl_vote kv mem ~tid:1 ~shard:0);
  Alcotest.(check bool) "txn 1 effects applied" true
    (Kvstore.lookup kv mem ~shard:0 ~key:5 = Some 8
    && Kvstore.lookup kv mem ~shard:1 ~key:4 = Some 9);
  Alcotest.(check bool) "txn 2 effects discarded" true
    (Kvstore.lookup kv mem ~shard:1 ~key:4 <> Some 11)

(* Weaving transactions into a generated workload must not perturb the
   single-key streams: same seed, txns on/off, identical singles. *)
let test_txn_weave_preserves_singles () =
  let base = { Client.default with ops_per_shard = 30; key_space = 16; seed = 4 } in
  let w0 = Client.generate base ~shards:2 in
  let w2 = Client.generate { base with Client.txns = 2 } ~shards:2 in
  Alcotest.(check int) "txns generated" 2 (Array.length w2.Client.txns);
  Array.iteri
    (fun s reqs ->
      let singles =
        List.filter
          (fun r -> r.Wire.op <> Wire.Txn)
          (Array.to_list w2.Client.requests.(s))
      in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d singles preserved" s)
        true
        (singles = Array.to_list reqs))
    w0.Client.requests

let test_txn_oracle_under_crashes_all_modes () =
  List.iter
    (fun mode ->
      let t = Server.plan (mk ~mode ~ops:20 ~txns:3 ()) in
      let reference = Server.run t in
      let total = reference.Server.result.Capri_runtime.Executor.instrs in
      let schedule = [ total / 4; total / 3; total / 5 ] in
      let outcome = Server.run ~crash_at:schedule t in
      check_ok t outcome;
      Alcotest.(check int) "recoveries" 3 outcome.Server.recoveries;
      Alcotest.(check bool) "streams equal" true
        (outcome.Server.final = reference.Server.final))
    (List.filter Arch.Persist.crash_recoverable Arch.Persist.all_modes)

let test_oracle_under_crashes_all_modes () =
  List.iter
    (fun mode ->
      let t = Server.plan (mk ~mode ~ops:40 ()) in
      let reference = Server.run t in
      let total = reference.Server.result.Capri_runtime.Executor.instrs in
      let schedule = [ total / 4; total / 3; total / 5 ] in
      let outcome = Server.run ~crash_at:schedule t in
      check_ok t outcome;
      Alcotest.(check int) "recoveries" 3 outcome.Server.recoveries;
      Alcotest.(check bool) "crash images kept" true
        (List.length outcome.Server.images = 3);
      (* the crashes must not change what the clients ultimately see *)
      Alcotest.(check bool) "streams equal" true
        (outcome.Server.final = reference.Server.final))
    (List.filter Arch.Persist.crash_recoverable Arch.Persist.all_modes)

let test_volatile_rejects_crashes () =
  let t = Server.plan (mk ~mode:Arch.Persist.Volatile ~ops:10 ()) in
  check_ok t (Server.run t);
  Alcotest.check_raises "no recovery without persistence"
    (Invalid_argument "Server.run: a volatile store cannot recover from a crash")
    (fun () -> ignore (Server.run ~crash_at:[ 100 ] t))

let test_acks_monotone () =
  let t = Server.plan (mk ~ops:30 ()) in
  let reference = Server.run t in
  let total = reference.Server.result.Capri_runtime.Executor.instrs in
  let outcome = Server.run ~crash_at:[ total / 2 ] t in
  Array.iter
    (fun shard_acks ->
      let prev = ref 0 in
      List.iter
        (fun (_, cycle) ->
          Alcotest.(check bool) "nondecreasing ack cycles" true (cycle >= !prev);
          prev := cycle)
        shard_acks)
    outcome.Server.acks

let test_admission_control () =
  (* A period far below the per-request service time must shed load. *)
  let t =
    Server.plan
      (mk ~ops:80 ~loop:(Client.Open { period = 5 }) ~admit:4 ())
  in
  Alcotest.(check bool) "rejects under overload" true (t.Server.rejected > 0);
  let outcome = Server.run t in
  check_ok t outcome;
  let s = Server.stats t outcome in
  Alcotest.(check int) "rejected reported" t.Server.rejected s.Sla.rejected;
  Alcotest.(check int) "admitted + rejected = offered" (2 * 80)
    (s.Sla.ops + s.Sla.rejected);
  (* A generous depth admits everything. *)
  let t' =
    Server.plan
      (mk ~ops:20 ~loop:(Client.Open { period = 5 }) ~admit:1000 ())
  in
  Alcotest.(check int) "no rejection" 0 t'.Server.rejected;
  (* A single tenant owns the whole depth: depth 0 sheds every arrival. *)
  let t0 =
    Server.plan (mk ~ops:20 ~loop:(Client.Open { period = 5 }) ~admit:0 ())
  in
  Alcotest.(check int) "depth 0 rejects all" (2 * 20) t0.Server.rejected

let test_deterministic () =
  let run_once () =
    let t = Server.plan (mk ~ops:40 ()) in
    let reference = Server.run t in
    let total = reference.Server.result.Capri_runtime.Executor.instrs in
    let outcome = Server.run ~crash_at:[ total / 3; total / 4 ] t in
    (outcome.Server.acks, Server.stats t outcome)
  in
  let a1, s1 = run_once () in
  let a2, s2 = run_once () in
  Alcotest.(check bool) "acks identical" true (a1 = a2);
  Alcotest.(check bool) "stats identical" true (s1 = s2)

let test_obs_instrumentation () =
  let obs = Capri_obs.Obs.create () in
  let t = Server.plan (mk ~ops:20 ()) in
  let outcome = Server.run ~obs t in
  let json = Capri_obs.Metrics.to_json obs.Capri_obs.Obs.metrics in
  Alcotest.(check bool) "acked counter exported" true
    (let needle = "service_acked" in
     let rec find i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  let acked = Array.fold_left (fun a l -> a + List.length l) 0 outcome.Server.acks in
  let instants =
    List.length
      (List.filter
         (fun (e : Capri_obs.Tracer.event) ->
           e.Capri_obs.Tracer.name = "ack")
         (Capri_obs.Tracer.events obs.Capri_obs.Obs.tracer))
  in
  Alcotest.(check int) "one ack instant per request" acked instants

(* Regression: a crash used to leave dangling B events on the core
   tracks and each resumed segment restarted its clock at zero, so any
   traced crash run failed Tracer.validate. The trace must now stay
   balanced and monotone across every crash + recovery boundary, in
   every recoverable mode, txns included. *)
let test_trace_valid_across_crashes () =
  List.iter
    (fun mode ->
      let t = Server.plan (mk ~mode ~ops:20 ~txns:2 ()) in
      let reference = Server.run t in
      let total = reference.Server.result.Capri_runtime.Executor.instrs in
      let schedule = [ total / 4; total / 3; total / 5 ] in
      let obs = Capri_obs.Obs.create () in
      let outcome = Server.run ~obs ~crash_at:schedule t in
      check_ok t outcome;
      (match Capri_obs.Tracer.validate obs.Capri_obs.Obs.tracer with
      | Ok () -> ()
      | Error m ->
        Alcotest.failf "%s: trace invalid across crashes: %s"
          (Arch.Persist.mode_name mode) m);
      (* the crashes really did interrupt open spans *)
      let closed_by_crash =
        List.filter
          (fun (e : Capri_obs.Tracer.event) ->
            List.mem_assoc "closed_by" e.Capri_obs.Tracer.args)
          (Capri_obs.Tracer.events obs.Capri_obs.Obs.tracer)
      in
      Alcotest.(check bool)
        (Arch.Persist.mode_name mode ^ ": crash closed spans")
        true
        (List.length closed_by_crash > 0);
      Alcotest.(check int)
        (Arch.Persist.mode_name mode ^ ": one downtime window per recovery")
        outcome.Server.recoveries
        (List.length outcome.Server.downtime))
    (List.filter Arch.Persist.crash_recoverable Arch.Persist.all_modes)

let test_slo_report_and_timeline () =
  let t = Server.plan (mk ~ops:40 ()) in
  let reference = Server.run t in
  let total = reference.Server.result.Capri_runtime.Executor.instrs in
  let outcome = Server.run ~crash_at:[ total / 3; total / 2 ] t in
  check_ok t outcome;
  let r = Slo.report ~slo_p99:1_000_000 ~slo_avail:0.5 ~t outcome in
  Alcotest.(check int) "one window per recovery" outcome.Server.recoveries
    (List.length r.Slo.windows);
  Alcotest.(check int) "down cycles = modeled recovery time"
    outcome.Server.recovery_cycles r.Slo.down_cycles;
  Alcotest.(check bool) "availability in (0,1)" true
    (r.Slo.availability > 0.0 && r.Slo.availability < 1.0);
  Alcotest.(check bool) "windows ordered and positive" true
    (List.for_all (fun w -> w.Slo.finish > w.Slo.start) r.Slo.windows);
  let served =
    Array.fold_left (fun a l -> a + List.length l) 0 outcome.Server.acks
  in
  Alcotest.(check int) "served = acked" served r.Slo.served;
  (* generous targets are met; burn ratios populated *)
  Alcotest.(check bool) "p99 target met" true
    (match r.Slo.p99_burn with Some b -> b <= 1.0 | None -> false);
  Alcotest.(check bool) "avail target met" true
    (r.Slo.availability >= 0.5);
  (* the timeline conserves ops and downtime *)
  let series = Slo.timeline ~t outcome in
  let module Series = Capri_obs.Series in
  let sum name =
    Series.fold series
      (fun acc ~window:_ ~name:n cell ->
        match cell with
        | Series.Cnt c when n = name -> acc + !c
        | _ -> acc)
      0
  in
  Alcotest.(check int) "timeline ops conserved" served (sum "ops");
  Alcotest.(check int) "timeline downtime conserved" r.Slo.down_cycles
    (sum "down_cycles");
  Alcotest.(check int) "timeline recoveries conserved"
    outcome.Server.recoveries (sum "recoveries")

let test_latency_labeled_by_op_kind () =
  let obs = Capri_obs.Obs.create () in
  let t = Server.plan (mk ~ops:30 ~txns:2 ()) in
  let outcome = Server.run ~obs t in
  check_ok t outcome;
  let served =
    Array.fold_left (fun a l -> a + List.length l) 0 outcome.Server.acks
  in
  let module Metrics = Capri_obs.Metrics in
  let m = obs.Capri_obs.Obs.metrics in
  let count kind =
    Metrics.Histogram.count
      (Metrics.log2_histogram m "service_latency_cycles"
         ~labels:[ ("op", kind) ] ~buckets:24)
  in
  let kinds = [ "read"; "update"; "insert"; "txn" ] in
  Alcotest.(check int) "kinds partition the acks" served
    (List.fold_left (fun a k -> a + count k) 0 kinds);
  (* mix A reads and writes over a fresh store: every kind but the
     2PC-free ones must appear, and the txn traffic is all "txn" *)
  Alcotest.(check bool) "reads observed" true (count "read" > 0);
  Alcotest.(check bool) "inserts observed" true (count "insert" > 0);
  Alcotest.(check bool) "txn acks observed" true (count "txn" > 0);
  (* request-lifecycle spans: one balanced span per served request *)
  let spans =
    List.filter
      (fun (e : Capri_obs.Tracer.event) ->
        match e.Capri_obs.Tracer.track with
        | Capri_obs.Tracer.Request _ ->
          e.Capri_obs.Tracer.phase = Capri_obs.Tracer.B
        | _ -> false)
      (Capri_obs.Tracer.events obs.Capri_obs.Obs.tracer)
  in
  Alcotest.(check int) "one lifecycle span per request" served
    (List.length spans)

let test_oracle_detects_corruption () =
  let t = Server.plan (mk ~ops:30 ()) in
  let reference = Server.run t in
  let total = reference.Server.result.Capri_runtime.Executor.instrs in
  let outcome = Server.run ~crash_at:[ total / 2 ] t in
  check_ok t outcome;
  (* a lost acked effect: corrupt the recovered table under an acked key *)
  (match outcome.Server.images with
  | [ image ] ->
    let nvm = image.Arch.Persist.nvm in
    let table = t.Server.kv.Kvstore.tables.(0) in
    let capacity = t.Server.kv.Kvstore.capacity in
    (* find a live slot and vanish its key, losing an acked put *)
    let slot = ref (-1) in
    for i = capacity - 1 downto 0 do
      if
        Arch.Memory.read nvm (table + (2 * i)) <> 0
        && Arch.Memory.read nvm (table + (2 * i) + 1) >= 0
      then slot := i
    done;
    Alcotest.(check bool) "table has a live slot" true (!slot >= 0);
    Arch.Memory.write nvm (table + (2 * !slot)) 999_999;
    (match Server.check t outcome with
     | Ok () -> Alcotest.fail "oracle missed a corrupted durable table"
     | Error v ->
       Alcotest.(check int) "blames shard 0" 0 v.Sla.shard)
  | _ -> Alcotest.fail "expected one crash image");
  (* a duplicated response in the completed stream *)
  let dup =
    {
      outcome with
      Server.images = [];
      final =
        Array.map
          (function x :: rest -> x :: x :: rest | [] -> [])
          outcome.Server.final;
    }
  in
  match Server.check t dup with
  | Ok () -> Alcotest.fail "oracle missed a duplicated response"
  | Error v -> Alcotest.(check int) "completion check" (-1) v.Sla.crash_index

let test_service_fuzz_trial_deterministic () =
  let module SF = Capri_fuzz.Service_fuzz in
  let cfg = { SF.default_cfg with SF.seed = 5; max_schedules = 3 } in
  let t1 = SF.run_trial cfg 0 in
  let t2 = SF.run_trial cfg 0 in
  Alcotest.(check bool) "pure in seed" true (t1 = t2);
  Alcotest.(check bool) "found no violation" true (t1.SF.t_failures = []);
  Alcotest.(check bool) "ran schedules" true (t1.SF.t_schedules > 0)

let test_zipf_skews_requests () =
  let workload =
    Client.generate
      { Client.default with key_space = 32; ops_per_shard = 4000; skew = 0.99 }
      ~shards:1
  in
  let counts = Array.make 33 0 in
  Array.iter
    (fun r -> counts.(r.Wire.key) <- counts.(r.Wire.key) + 1)
    workload.Client.requests.(0);
  Alcotest.(check bool) "hot key dominates" true
    (counts.(1) > 3 * counts.(16))

(* --- work-stealing scheduler --- *)

let test_sched_demux () =
  let r n = Wire.response ~status:Wire.Ok ~payload:n in
  let h ~shard ~seq = Wire.slice_header ~shard ~seq in
  (* Two cores interleaving two shards; shard 0's second slice ran on
     core 1 (a steal). *)
  let streams =
    [|
      [ h ~shard:0 ~seq:0; r 1; r 2; h ~shard:1 ~seq:0; r 3 ];
      [ h ~shard:0 ~seq:1; r 4 ];
    |]
  in
  let slices, errs = Sched.demux ~word:Fun.id ~shards:2 streams in
  Alcotest.(check (list string)) "no structural errors" [] errs;
  Alcotest.(check int) "shard 0 slices" 2 (List.length slices.(0));
  Alcotest.(check int) "shard 1 slices" 1 (List.length slices.(1));
  let s0 = List.nth slices.(0) 1 in
  Alcotest.(check int) "stolen slice core" 1 s0.Sched.core;
  Alcotest.(check (list int)) "stolen slice body" [ r 4 ] s0.Sched.body;
  let views, verrs = Sched.views ~word:Fun.id ~shards:2 streams in
  Alcotest.(check (list string)) "views clean" [] verrs;
  Alcotest.(check (list int)) "shard 0 view" [ r 1; r 2; r 4 ] views.(0);
  Alcotest.(check (list int)) "shard 1 view" [ r 3 ] views.(1);
  let migs = Sched.migrations ~word:Fun.id ~shards:2 streams in
  Alcotest.(check bool) "one migration, 0 -> 1" true
    (migs
    = [ { Sched.shard = 0; seq = 1; from_core = 0; to_core = 1 } ]);
  (* Structural errors: a headerless stream, and a seq gap (lost slice). *)
  let _, e1 = Sched.demux ~word:Fun.id ~shards:1 [| [ r 1 ] |] in
  Alcotest.(check bool) "headerless stream detected" true (e1 <> []);
  let _, e2 =
    Sched.demux ~word:Fun.id ~shards:1
      [| [ h ~shard:0 ~seq:0; r 1; h ~shard:0 ~seq:2; r 2 ] |]
  in
  Alcotest.(check bool) "seq gap detected" true (e2 <> [])

let test_queue_depth () =
  (* Arrivals at 0/10/20; acks at 5/25/26: depth peaks at 2 (requests 1
     and 2 both in flight at cycle 20). *)
  Alcotest.(check int) "peak depth" 2
    (Sched.queue_depth ~period:10 ~arrivals:3 ~acks:[ 5; 25; 26 ])

let scheduled cfg ~cores ~quantum ~steal =
  { cfg with Server.sched = Some { Sched.cores; quantum; steal } }

(* Property: serving through the scheduler — stealing on or off — is
   observably equivalent to static pinning: same per-shard response
   values, same durable tables, and the SLA oracle holds, crash-free
   and under a crash schedule, in every recoverable mode. *)
let prop_steal_equiv_pinned =
  let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000) in
  QCheck.Test.make ~count:8 ~name:"scheduler observationally = pinned" seed_gen
    (fun seed ->
      let shards = 2 + (seed mod 2) in
      let cfg0 =
        mk ~shards
          ~ops:(8 + (seed mod 6))
          ~seed:(seed + 1)
          ~txns:(seed mod 3) ~txn_items:1 ()
      in
      let serve cfg ~crash =
        let t = Server.plan cfg in
        let total =
          Array.fold_left
            (fun a s -> a + Array.length s)
            0 t.Server.kv.Kvstore.requests
        in
        let crash_at = if crash then [ total * 9; total * 17 ] else [] in
        let outcome = Server.run ~crash_at t in
        check_ok t outcome;
        let views, errs = Server.views t outcome in
        Alcotest.(check (list string)) "streams demux cleanly" [] errs;
        let values =
          Array.map (List.map fst) (Array.sub views 0 shards)
        in
        let table =
          List.init 24 (fun k ->
            List.init shards (fun s ->
              Kvstore.lookup t.Server.kv
                outcome.Server.result.Capri_runtime.Executor.memory ~shard:s
                ~key:(k + 1)))
        in
        (values, table)
      in
      List.for_all
        (fun mode ->
          List.for_all
            (fun crash ->
              let cfg = { cfg0 with Server.mode } in
              let reference = serve cfg ~crash in
              List.for_all
                (fun sched ->
                  serve (scheduled cfg ~cores:(2 + (seed mod 2))
                           ~quantum:(1 + (seed mod 3)) ~steal:sched)
                    ~crash
                  = reference)
                [ false; true ])
            [ false; true ])
        [ Arch.Persist.Capri; Arch.Persist.Redo_nowb ])

(* The canonical noisy-neighbor shape must actually migrate work: the
   durable steal counters and the slice headers agree that tasks moved. *)
let test_steals_counted () =
  let client =
    {
      Client.default with
      ops_per_shard = 30;
      key_space = 16;
      seed = 11;
      loop = Client.Open { period = 120 };
    }
  in
  let cfg =
    {
      Server.default_cfg with
      shards = 6;
      client;
      sched = Some { Sched.cores = 4; quantum = 4; steal = true };
      tenants = Some (Client.noisy_tenants ~tenants:3 ~skew:3.0);
    }
  in
  let t = Server.plan cfg in
  let outcome = Server.run t in
  check_ok t outcome;
  Alcotest.(check bool) "steal counter > 0" true (Server.steals t outcome > 0);
  let migs = Server.migrations t outcome in
  Alcotest.(check bool) "migrations visible in headers" true (migs <> []);
  List.iter
    (fun m ->
      Alcotest.(check bool) "migration moves cores" true
        (m.Sched.from_core <> m.Sched.to_core))
    migs

(* --- multi-tenancy --- *)

let test_generate_tenants_deterministic () =
  let tenants = Client.noisy_tenants ~tenants:3 ~skew:2.0 in
  let cfg = { Client.default with ops_per_shard = 40; key_space = 8 } in
  let w1 = Client.generate_tenants ~hot_txns:2 cfg ~tenants ~shards:4 in
  let w2 = Client.generate_tenants ~hot_txns:2 cfg ~tenants ~shards:4 in
  Alcotest.(check bool) "equal inputs, equal workloads" true (w1 = w2);
  Alcotest.(check int) "tenant count" 3 w1.Client.tenants;
  (* Namespaces are private: every single-op key attributes to a tenant;
     the hot-txn workload reserves one shared key past every namespace. *)
  Alcotest.(check int) "global key space" ((3 * 8) + 1) w1.Client.key_space;
  Array.iter
    (Array.iter (fun r ->
         match r.Wire.op with
         | Wire.Txn -> ()
         | _ ->
           let tn = Wire.tenant_of_key ~space:w1.Client.space r.Wire.key in
           Alcotest.(check bool) "key inside a namespace" true
             (tn >= 0 && tn < 3)))
    w1.Client.base.Client.requests;
  Array.iter
    (fun tn -> Alcotest.(check bool) "txn issuer valid" true (tn >= 0 && tn < 3))
    w1.Client.txn_tenant

let test_tenant_fair_share_admission () =
  let client =
    {
      Client.default with
      ops_per_shard = 30;
      key_space = 16;
      seed = 11;
      loop = Client.Open { period = 60 };
    }
  in
  let cfg =
    {
      Server.default_cfg with
      shards = 4;
      client;
      admit_depth = Some 4;
      sched = Some { Sched.cores = 2; quantum = 4; steal = true };
      tenants = Some (Client.noisy_tenants ~tenants:3 ~skew:3.0);
    }
  in
  let t = Server.plan cfg in
  Alcotest.(check bool) "admission rejected some arrivals" true
    (t.Server.rejected > 0);
  Alcotest.(check int) "reject cycles recorded" t.Server.rejected
    (List.length t.Server.rejected_at);
  let outcome = Server.run t in
  check_ok t outcome;
  let per_tenant = Slo.tenant_rows ~t outcome in
  Alcotest.(check int) "one row per tenant" 3 (List.length per_tenant);
  List.iter
    (fun (r : Slo.tenant_row) ->
      Alcotest.(check bool) "every tenant served" true (r.Slo.t_served > 0);
      Alcotest.(check bool) "p99 positive" true (r.Slo.t_p99 > 0.0))
    per_tenant;
  let served_total =
    List.fold_left (fun a (r : Slo.tenant_row) -> a + r.Slo.t_served) 0
      per_tenant
  in
  Alcotest.(check int) "served + rejected = offered" (30 * 4)
    (served_total + t.Server.rejected)

(* --- production-scale recovery: bulk loading, compaction, the restart
   bill --- *)

let compile kv =
  Capri_compiler.Pipeline.compile Capri_compiler.Options.default
    kv.Kvstore.program

let plain t = { Server.cfg = mk ~shards:2 (); kv = t; compiled = compile t;
                rejected = 0; rejected_at = []; workload = None }

(* The bulk loader must be indistinguishable from serving the same puts:
   identical slot-level table words (same probe order by construction,
   collisions and overwrites included) and identical lookups. *)
let test_bulk_loader_equiv_op_by_op () =
  let key_space = 24 in
  (* key 3 appears twice: the loader must overwrite in place exactly as
     a second put would *)
  let pairs s =
    [|
      (3, 7 + s); (19, 4); (3, 9 + s);  (* 3 overwritten in place *)
      (5, 1); (10, 2 + s); (24, 6); (1, 8);
    |]
  in
  let put_of (k, v) = { Wire.op = Wire.Put; key = k; value = v; expected = 0 } in
  let kv_put =
    Kvstore.build ~key_space
      ~requests:[| Array.map put_of (pairs 0); Array.map put_of (pairs 1) |]
      ()
  in
  let t_put = plain kv_put in
  let out_put = Server.run t_put in
  check_ok t_put out_put;
  let gets =
    Array.init 4 (fun i ->
        { Wire.op = Wire.Get; key = (i * 7) + 1; value = 0; expected = 0 })
  in
  let kv_pre =
    Kvstore.build ~key_space
      ~requests:[| gets; [||] |]
      ~preload:[| pairs 0; pairs 1 |] ()
  in
  let t_pre = plain kv_pre in
  let out_pre = Server.run t_pre in
  (* the oracle sees preloaded pairs as committed history: gets answer
     hits from cycle zero *)
  check_ok t_pre out_pre;
  let mem_put = out_put.Server.result.Capri_runtime.Executor.memory in
  let mem_pre = out_pre.Server.result.Capri_runtime.Executor.memory in
  for s = 0 to 1 do
    (* slot-level: the loader wrote exactly what the put path wrote *)
    Alcotest.(check int) "same capacity" kv_put.Kvstore.capacity
      kv_pre.Kvstore.capacity;
    for i = 0 to (kv_put.Kvstore.capacity * 2) - 1 do
      Alcotest.(check int)
        (Printf.sprintf "shard %d word %d" s i)
        (Arch.Memory.read mem_put (kv_put.Kvstore.tables.(s) + i))
        (Arch.Memory.read mem_pre (kv_pre.Kvstore.tables.(s) + i))
    done;
    for key = 1 to key_space do
      Alcotest.(check bool)
        (Printf.sprintf "shard %d key %d lookup" s key)
        true
        (Kvstore.lookup kv_put mem_put ~shard:s ~key
        = Kvstore.lookup kv_pre mem_pre ~shard:s ~key)
    done
  done;
  (* the gets really served hits from the preload *)
  Alcotest.(check (list int)) "preload gets answered"
    (Array.to_list (Sla.expected_streams (Sla.replay kv_pre)).(0))
    out_pre.Server.final.(0)

let test_preload_validation () =
  let reqs = [| [||]; [||] |] in
  Alcotest.check_raises "wrong shard count"
    (Invalid_argument "Kvstore.build: preload must have one entry per shard")
    (fun () ->
      ignore (Kvstore.build ~key_space:8 ~requests:reqs ~preload:[| [||] |] ()));
  Alcotest.check_raises "key out of space"
    (Invalid_argument "Kvstore.build: preload key out of key space")
    (fun () ->
      ignore
        (Kvstore.build ~key_space:8 ~requests:reqs
           ~preload:[| [| (9, 1) |]; [||] |] ()));
  Alcotest.check_raises "negative value"
    (Invalid_argument "Kvstore.build: preload value out of payload range")
    (fun () ->
      ignore
        (Kvstore.build ~key_space:8 ~requests:reqs
           ~preload:[| [| (1, -1) |]; [||] |] ()));
  (* the layout guard behind million-key stores *)
  Alcotest.(check bool) "heap bound enforced" true
    (match
       Capri_runtime.Layout.check_heap
         ~words:(Capri_runtime.Layout.heap_words + 1)
     with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* a synthetic preload whose tables cannot fit is refused before any
     pair is built: 2 shards x 8.5M keys need 68M table words *)
  List.iter
    (fun keys ->
      let before = Gc.allocated_bytes () in
      Alcotest.check_raises
        (Printf.sprintf "%d keys rejected" keys)
        (Invalid_argument
           (Printf.sprintf
              "%d keys per shard over 2 shards exceed the 67108864-word heap"
              keys))
        (fun () -> ignore (Kvstore.synthetic_preload ~shards:2 ~keys));
      Alcotest.(check bool)
        (Printf.sprintf "%d keys: nothing built" keys)
        true
        (Gc.allocated_bytes () -. before < 65536.))
    [ 8_500_000; 100_000_000 ]

(* Compaction on vs off over the identical run: the checkpoint cursor
   advances, the journal tail a restart re-serves is bounded by the
   interval, and nothing the client (or the durability oracle) sees
   changes — same response values, same durable tables, only the
   modeled restart bill shrinks. *)
let test_compaction_bounds_journal_tail () =
  let run_with interval =
    let cfg =
      {
        (mk ~ops:40 ()) with
        Server.config =
          { Arch.Config.sim_default with Arch.Config.compact_interval = interval };
      }
    in
    let t = Server.plan cfg in
    let total =
      (Server.run t).Server.result.Capri_runtime.Executor.instrs
    in
    let outcome = Server.run ~crash_at:[ total * 9 / 10 ] t in
    check_ok t outcome;
    (t, outcome)
  in
  let _, off = run_with 0 in
  let t_on, on = run_with 8 in
  (match (off.Server.images, on.Server.images) with
  | [ ioff ], [ ion ] ->
    Alcotest.(check bool) "cursor never advances with compaction off" true
      (Array.for_all (fun b -> b = 0) ioff.Arch.Persist.acked_base);
    Alcotest.(check bool) "cursor advanced with compaction on" true
      (Array.exists (fun b -> b > 0) ion.Arch.Persist.acked_base);
    (* the full ledger is identical — compaction truncates the durable
       journal, not the acked history the oracle checks *)
    Alcotest.(check bool) "acked ledgers identical" true
      (ioff.Arch.Persist.acked = ion.Arch.Persist.acked);
    Array.iteri
      (fun c acked ->
        let tail = List.length acked - ion.Arch.Persist.acked_base.(c) in
        Alcotest.(check bool)
          (Printf.sprintf "core %d tail bounded" c)
          true
          (tail >= 0 && tail <= 8 + (2 * t_on.Server.cfg.Server.batch)))
      ion.Arch.Persist.acked
  | _ -> Alcotest.fail "expected one crash image per run");
  Alcotest.(check bool) "tail re-served shrinks" true
    (on.Server.recovery_tail < off.Server.recovery_tail);
  Alcotest.(check bool) "restart bill shrinks" true
    (on.Server.recovery_cycles < off.Server.recovery_cycles);
  Alcotest.(check bool) "final streams identical" true
    (on.Server.final = off.Server.final);
  Alcotest.(check bool) "ack values identical" true
    (Array.map (List.map fst) on.Server.acks
    = Array.map (List.map fst) off.Server.acks)

(* Property: compacted recovery == full-history recovery, observably —
   for random workloads, modes and crash schedules, serving with a
   small compact interval and with compaction off yields the same
   response values, passes the oracle in both, and leaves identical
   durable tables in every crash image and at completion. *)
let prop_compacted_equiv_full_history =
  let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000) in
  QCheck.Test.make ~count:8 ~name:"compacted == full-history recovery" seed_gen
    (fun seed ->
      let mode =
        if seed mod 2 = 0 then Arch.Persist.Capri else Arch.Persist.Redo_nowb
      in
      let mk_cfg interval =
        {
          (mk ~mode ~shards:2
             ~ops:(16 + (seed mod 16))
             ~seed:(seed + 1)
             ~txns:(seed mod 2) ~txn_items:1 ())
          with
          Server.config =
            {
              Arch.Config.sim_default with
              Arch.Config.compact_interval = interval;
            };
        }
      in
      let serve interval =
        let t = Server.plan (mk_cfg interval) in
        let total =
          (Server.run t).Server.result.Capri_runtime.Executor.instrs
        in
        let schedule =
          [ max 1 (total / (2 + (seed mod 3))); max 1 (total * 4 / 5) ]
        in
        let outcome = Server.run ~crash_at:schedule t in
        check_ok t outcome;
        let tables mem =
          List.init 24 (fun k ->
              List.init t.Server.kv.Kvstore.shards (fun s ->
                  Kvstore.lookup t.Server.kv mem ~shard:s ~key:(k + 1)))
        in
        ( Array.map (List.map fst) outcome.Server.acks,
          outcome.Server.final,
          List.map (fun i -> tables i.Arch.Persist.nvm) outcome.Server.images,
          tables outcome.Server.result.Capri_runtime.Executor.memory )
      in
      serve (2 + (seed mod 6)) = serve 0)

(* Recovery is repeatable: the same cfg and crash schedule served twice
   produce byte-identical images, acks, stats and durable state, so
   nothing [Server.run] leaves behind reaches the next run. *)
let test_recovery_repeatable () =
  let serve () =
    let cfg =
      {
        (mk ~ops:40 ~txns:2 ()) with
        Server.config =
          { Arch.Config.sim_default with Arch.Config.compact_interval = 8 };
      }
    in
    let t = Server.plan cfg in
    let total =
      (Server.run t).Server.result.Capri_runtime.Executor.instrs
    in
    let outcome = Server.run ~crash_at:[ total / 3; total / 2 ] t in
    check_ok t outcome;
    (t, outcome)
  in
  let _, o1 = serve () in
  let t2, o2 = serve () in
  Alcotest.(check bool) "acks identical" true (o1.Server.acks = o2.Server.acks);
  Alcotest.(check bool) "finals identical" true
    (o1.Server.final = o2.Server.final);
  Alcotest.(check bool) "image journals/cursors/replay counts identical" true
    (List.map
       (fun (i : Arch.Persist.image) ->
         (i.Arch.Persist.journal, i.Arch.Persist.acked,
          i.Arch.Persist.acked_base, i.Arch.Persist.replayed))
       o1.Server.images
    = List.map
        (fun (i : Arch.Persist.image) ->
          (i.Arch.Persist.journal, i.Arch.Persist.acked,
           i.Arch.Persist.acked_base, i.Arch.Persist.replayed))
        o2.Server.images);
  Alcotest.(check bool) "stats identical" true
    (Server.stats t2 o1 = Server.stats t2 o2);
  List.iter2
    (fun (i1 : Arch.Persist.image) (i2 : Arch.Persist.image) ->
      for s = 0 to t2.Server.kv.Kvstore.shards - 1 do
        for key = 1 to 24 do
          Alcotest.(check bool) "recovered tables identical" true
            (Kvstore.lookup t2.Server.kv i1.Arch.Persist.nvm ~shard:s ~key
            = Kvstore.lookup t2.Server.kv i2.Arch.Persist.nvm ~shard:s ~key)
        done
      done)
    o1.Server.images o2.Server.images

(* The modeled restart bill charges the slowest core, not the serial
   sum: every core replays its own blocks, journal tail and log records
   in parallel. *)
let test_recovery_penalty_max_over_cores () =
  let config =
    {
      Arch.Config.sim_default with
      Arch.Config.power_cycle_cycles = 1000;
      recovery_block_cycles = 50;
      journal_replay_cycles = 4;
      redo_replay_cycles = 8;
    }
  in
  (* core 0: 2*50 + 1*4 + 3*8 = 128; core 1: 0 + 5*4 + 1*8 = 28 *)
  Alcotest.(check int) "max over cores" (1000 + 128)
    (Server.recovery_penalty config ~blocks:[| 2; 0 |] ~tails:[| 1; 5 |]
       ~replayed:[| 3; 1 |]);
  Alcotest.(check int) "no cores = fixed power cycle" 1000
    (Server.recovery_penalty config ~blocks:[||] ~tails:[||] ~replayed:[||]);
  (* the sum would be 1156; the max must be strictly cheaper when work
     is spread over cores *)
  Alcotest.(check bool) "cheaper than the serial sum" true
    (Server.recovery_penalty config ~blocks:[| 1; 1 |] ~tails:[| 0; 0 |]
       ~replayed:[| 0; 0 |]
    < 1000 + 100)

(* A preloaded store at 10^4 keys per shard serves, crashes and
   recovers with the oracle holding — the scaled-down in-test version
   of the bench's 10^5..10^6-key scenario. *)
let test_preloaded_store_recovers () =
  let keys = 10_000 in
  let preload =
    Array.init 2 (fun s ->
        Array.init keys (fun i -> (i + 1, (i + 1 + (s * 17)) mod 251)))
  in
  let client =
    { Client.default with ops_per_shard = 30; key_space = keys; seed = 3 }
  in
  let cfg =
    {
      Server.default_cfg with
      shards = 2;
      client;
      config =
        { Arch.Config.sim_default with Arch.Config.compact_interval = 8 };
      preload;
    }
  in
  let t = Server.plan cfg in
  let total = (Server.run t).Server.result.Capri_runtime.Executor.instrs in
  let outcome = Server.run ~crash_at:[ total / 2 ] t in
  check_ok t outcome;
  Alcotest.(check int) "one recovery" 1 outcome.Server.recoveries;
  (* spot-check untouched preloaded keys survive in the final store *)
  let mem = outcome.Server.result.Capri_runtime.Executor.memory in
  let touched = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun (r : Wire.request) ->
         if r.Wire.op <> Wire.Get then Hashtbl.replace touched r.Wire.key ()))
    t.Server.kv.Kvstore.requests;
  let checked = ref 0 in
  for key = 1 to keys do
    if key mod 997 = 0 && not (Hashtbl.mem touched key) then begin
      incr checked;
      for s = 0 to 1 do
        Alcotest.(check bool)
          (Printf.sprintf "preloaded key %d shard %d survives" key s)
          true
          (Kvstore.lookup t.Server.kv mem ~shard:s ~key
          = Some ((key + (s * 17)) mod 251))
      done
    end
  done;
  Alcotest.(check bool) "spot checks ran" true (!checked > 0)

(* Property: random multi-key txn batches satisfy the serializability
   oracle in all five persistence modes, crash-free — the sanity floor
   under the crash-schedule fuzzing. *)
let prop_txn_batches_serializable =
  let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000) in
  QCheck.Test.make ~count:10
    ~name:"txn batches serializable (all modes, crash-free)" seed_gen
    (fun seed ->
      let cfg0 =
        mk
          ~shards:(1 + (seed mod 3))
          ~ops:(6 + (seed mod 8))
          ~seed:(seed + 1)
          ~txns:(1 + (seed mod 3))
          ~txn_items:(1 + (seed mod 2))
          ()
      in
      List.for_all
        (fun mode ->
          let t = Server.plan { cfg0 with Server.mode } in
          let outcome = Server.run t in
          match Server.check t outcome with
          | Ok () -> true
          | Error v ->
            QCheck.Test.fail_reportf "seed %d mode %s: %s" seed
              (Arch.Persist.mode_name mode)
              (Format.asprintf "%a" Sla.pp_violation v))
        Arch.Persist.all_modes)

let suite =
  [
    Alcotest.test_case "wire round trip" `Quick test_wire_round_trip;
    Alcotest.test_case "crash-free = model" `Quick test_crash_free_matches_model;
    Alcotest.test_case "handler paths" `Quick test_handler_paths;
    Alcotest.test_case "oracle under crashes, all modes" `Quick
      test_oracle_under_crashes_all_modes;
    Alcotest.test_case "volatile rejects crashes" `Quick
      test_volatile_rejects_crashes;
    Alcotest.test_case "ack cycles monotone" `Quick test_acks_monotone;
    Alcotest.test_case "admission control" `Quick test_admission_control;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "obs instrumentation" `Quick test_obs_instrumentation;
    Alcotest.test_case "oracle detects corruption" `Quick
      test_oracle_detects_corruption;
    Alcotest.test_case "service fuzz trial deterministic" `Quick
      test_service_fuzz_trial_deterministic;
    Alcotest.test_case "zipfian request skew" `Quick test_zipf_skews_requests;
    Alcotest.test_case "txn: scripted commit and abort" `Quick
      test_txn_commit_and_abort;
    Alcotest.test_case "txn: weave preserves singles" `Quick
      test_txn_weave_preserves_singles;
    Alcotest.test_case "txn: oracle under crashes, all modes" `Quick
      test_txn_oracle_under_crashes_all_modes;
    Alcotest.test_case "trace valid across crashes, all modes" `Quick
      test_trace_valid_across_crashes;
    Alcotest.test_case "slo report and timeline" `Quick
      test_slo_report_and_timeline;
    Alcotest.test_case "latency labeled by op kind" `Quick
      test_latency_labeled_by_op_kind;
    Alcotest.test_case "sched: demux and migrations" `Quick test_sched_demux;
    Alcotest.test_case "sched: queue depth" `Quick test_queue_depth;
    Alcotest.test_case "sched: steals counted" `Quick test_steals_counted;
    Alcotest.test_case "tenants: deterministic generation" `Quick
      test_generate_tenants_deterministic;
    Alcotest.test_case "tenants: fair-share admission" `Quick
      test_tenant_fair_share_admission;
    Alcotest.test_case "bulk loader = op-by-op puts" `Quick
      test_bulk_loader_equiv_op_by_op;
    Alcotest.test_case "preload validation" `Quick test_preload_validation;
    Alcotest.test_case "compaction bounds the journal tail" `Quick
      test_compaction_bounds_journal_tail;
    Alcotest.test_case "recovery is repeatable" `Quick
      test_recovery_repeatable;
    Alcotest.test_case "recovery penalty: max over cores" `Quick
      test_recovery_penalty_max_over_cores;
    Alcotest.test_case "preloaded store recovers" `Quick
      test_preloaded_store_recovers;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_txn_batches_serializable; prop_steal_equiv_pinned;
        prop_compacted_equiv_full_history;
      ]
