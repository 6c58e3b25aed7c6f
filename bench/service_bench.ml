(* Serving-layer benchmark: throughput, latency percentiles, modeled
   recovery time and transaction outcomes for the capri.service KV store
   across the five persistence design points and the three YCSB-style
   mixes ([--txns] weaves cross-shard 2PC transactions into every
   trial; the txC/txA column tallies their commits/aborts).

   Trials are seed-pure and fan out over the Pool in input order, so the
   rendered table is byte-identical at any --jobs count (enforced by
   service_smoke as part of `dune runtest`). Every trial also holds the
   acked-durability oracle; a violation aborts the benchmark rather than
   report numbers for a broken store. *)

module Arch = Capri_arch
module Svc = Capri_service
module Pool = Capri_util.Pool
module Table = Capri_util.Table

let mixes = [ Svc.Client.A; Svc.Client.B; Svc.Client.C ]

type row = {
  mode : Arch.Persist.mode;
  mix : Svc.Client.mix;
  stats : Svc.Sla.stats;
}

let trial ~shards ~ops ~crashes ~txns (mode, mix) =
  let client =
    { Svc.Client.default with Svc.Client.mix; ops_per_shard = ops; txns }
  in
  let t =
    Svc.Server.plan { Svc.Server.default_cfg with Svc.Server.shards; client; mode }
  in
  (* the crash schedule is phrased in per-segment instruction counts, so
     derive it from a crash-free reference run of the same plan *)
  let schedule =
    if crashes = 0 || mode = Arch.Persist.Volatile then []
    else begin
      let total =
        (Svc.Server.run t).Svc.Server.result.Capri_runtime.Executor.instrs
      in
      List.init crashes (fun _ -> max 1 (total / (crashes + 1)))
    end
  in
  let outcome = Svc.Server.run ~crash_at:schedule t in
  (match Svc.Server.check t outcome with
  | Ok () -> ()
  | Error v ->
    failwith
      (Format.asprintf "service bench: oracle violated: %a"
         Svc.Sla.pp_violation v));
  { mode; mix; stats = Svc.Server.stats t outcome }

let rows ~jobs ~shards ~ops ~crashes ~txns =
  let cells =
    List.concat_map
      (fun mode -> List.map (fun mix -> (mode, mix)) mixes)
      Arch.Persist.all_modes
  in
  Pool.with_pool ~jobs (fun pool ->
      Pool.map_list pool (trial ~shards ~ops ~crashes ~txns) cells)

let render rows =
  let t =
    Table.create
      ~header:
        [
          "mode"; "mix"; "ops"; "txC/txA"; "tput/kcyc"; "p50"; "p99"; "recov";
          "mean recov cyc"; "avail%";
        ]
  in
  let last_mode = ref None in
  List.iter
    (fun r ->
      if !last_mode <> None && !last_mode <> Some r.mode then Table.add_sep t;
      last_mode := Some r.mode;
      let s = r.stats in
      Table.add_row t
        [
          Arch.Persist.mode_name r.mode; Svc.Client.mix_name r.mix;
          string_of_int s.Svc.Sla.ops;
          Printf.sprintf "%d/%d" s.Svc.Sla.txn_commits s.Svc.Sla.txn_aborts;
          Table.fmt_f s.Svc.Sla.throughput;
          Table.fmt_f ~decimals:1 s.Svc.Sla.p50;
          Table.fmt_f ~decimals:1 s.Svc.Sla.p99;
          string_of_int s.Svc.Sla.recoveries;
          Table.fmt_f ~decimals:1 s.Svc.Sla.mean_recovery;
          Table.fmt_f ~decimals:3 (100.0 *. s.Svc.Sla.availability);
        ])
    rows;
  Table.render t

let table ~jobs ~shards ~ops ~crashes ~txns =
  render (rows ~jobs ~shards ~ops ~crashes ~txns)

(* ------------------- rolling-crash availability scenario ------------------- *)

(* Crashes arrive while an open-loop client keeps offering load: the
   run's unavailability is measured, not inferred — each crash opens an
   explicit downtime window (power cycle + recovery-block replay) during
   which arrivals pile into the replay backlog, and the Slo report
   splits tail latency into requests that overlapped a window versus
   the rest. Volatile is excluded (it cannot recover); the remaining
   modes fan out over the Pool in input order, so the rendered output
   is byte-identical at any --jobs count. *)

type rolling_row = {
  r_mode : Arch.Persist.mode;
  r_stats : Svc.Sla.stats;
  report : Svc.Slo.report;
  timeline : string;  (* rendered windowed series *)
}

let rolling_trial ~shards ~ops ~crashes ~period mode =
  let client =
    {
      Svc.Client.default with
      Svc.Client.mix = Svc.Client.A;
      ops_per_shard = ops;
      loop = Svc.Client.Open { period };
    }
  in
  let t =
    Svc.Server.plan
      { Svc.Server.default_cfg with Svc.Server.shards; client; mode }
  in
  let schedule =
    if crashes = 0 then []
    else begin
      let total =
        (Svc.Server.run t).Svc.Server.result.Capri_runtime.Executor.instrs
      in
      List.init crashes (fun _ -> max 1 (total / (crashes + 1)))
    end
  in
  let outcome = Svc.Server.run ~crash_at:schedule t in
  (match Svc.Server.check t outcome with
  | Ok () -> ()
  | Error v ->
    failwith
      (Format.asprintf "rolling bench: oracle violated: %a"
         Svc.Sla.pp_violation v));
  {
    r_mode = mode;
    r_stats = Svc.Server.stats t outcome;
    report = Svc.Slo.report ~t outcome;
    timeline = Svc.Slo.render_timeline (Svc.Slo.timeline ~t outcome);
  }

let rolling_rows ~jobs ~shards ~ops ~crashes ~period =
  Pool.with_pool ~jobs (fun pool ->
      Pool.map_list pool
        (rolling_trial ~shards ~ops ~crashes ~period)
        (List.filter Arch.Persist.crash_recoverable Arch.Persist.all_modes))

let render_rolling rows =
  let t =
    Table.create
      ~header:
        [
          "mode"; "ops"; "avail%"; "downW"; "down cyc"; "p99 in"; "p99 out";
          "replay cyc/recov";
        ]
  in
  List.iter
    (fun r ->
      let rep = r.report in
      Table.add_row t
        [
          Arch.Persist.mode_name r.r_mode;
          string_of_int rep.Svc.Slo.served;
          Table.fmt_f ~decimals:3 (100.0 *. rep.Svc.Slo.availability);
          string_of_int (List.length rep.Svc.Slo.windows);
          string_of_int rep.Svc.Slo.down_cycles;
          Table.fmt_f ~decimals:1 rep.Svc.Slo.p99_in;
          Table.fmt_f ~decimals:1 rep.Svc.Slo.p99_out;
          Table.fmt_f ~decimals:1 rep.Svc.Slo.mean_replay_cycles;
        ])
    rows;
  Table.render t

(* The full scenario output: the mode table, then the Capri run's
   windowed timeline — the service as a function of time, crashes
   visible as holes. *)
let rolling_table ~jobs ~shards ~ops ~crashes ~period =
  let rows = rolling_rows ~jobs ~shards ~ops ~crashes ~period in
  let capri_timeline =
    match List.find_opt (fun r -> r.r_mode = Arch.Persist.Capri) rows with
    | Some r -> "\ncapri timeline:\n" ^ r.timeline
    | None -> ""
  in
  render_rolling rows ^ capri_timeline

(* ------------------- recovery-at-scale scenario ------------------- *)

(* How restart cost scales with served history on a production-size
   store. Every trial preloads [keys] committed pairs per shard through
   the bulk loader (so the store starts at scale without serving
   millions of puts), serves [ops * factor] requests per shard, and
   crashes once late in the run — the accumulated history is what
   recovery pays for. With journal compaction off the durable tail
   grows with the factor and the recovery bill with it; with compaction
   on the tail is bounded by the compact interval, so recovery cost
   stays flat while the store serves 10x the history. Trials fan out
   over [jobs] domains; the table is byte-identical at any width
   (service_smoke re-renders it at 1 and 4 and compares bytes). *)

type recovery_row = {
  v_compact : bool;
  v_factor : int;
  v_ops : int;
  v_blocks : int;  (* recovery blocks replayed at the crash *)
  v_tail : int;  (* durable journal-tail entries re-served *)
  v_replayed : int;  (* redo/undo log records re-applied *)
  v_recovery_cycles : int;
  v_availability : float;
}

(* Deterministic committed state: every key of every shard, with a
   value derived from (key, shard) so cross-shard confusion would be
   caught by the oracle's table scan. *)
let store_preload ~shards ~keys =
  Array.init shards (fun s ->
      Array.init keys (fun i ->
          let key = i + 1 in
          (key, (key + (s * 17)) mod 251)))

let recovery_cfg ~shards ~keys ~ops ~interval ~compact ~factor =
  let client =
    {
      Svc.Client.default with
      Svc.Client.mix = Svc.Client.A;
      key_space = keys;
      ops_per_shard = ops * factor;
      txns = 0;
    }
  in
  let config =
    {
      Arch.Config.sim_default with
      Arch.Config.compact_interval = (if compact then interval else 0);
    }
  in
  {
    Svc.Server.default_cfg with
    Svc.Server.shards;
    client;
    mode = Arch.Persist.Capri;
    config;
    preload = store_preload ~shards ~keys;
  }

let recovery_trial ~shards ~keys ~ops ~interval (compact, factor) =
  let cfg = recovery_cfg ~shards ~keys ~ops ~interval ~compact ~factor in
  let t = Svc.Server.plan cfg in
  let total =
    (Svc.Server.run t).Svc.Server.result.Capri_runtime.Executor.instrs
  in
  (* one crash at 90% of the reference run: almost all of the trial's
     history is already served and journaled when the power fails *)
  let outcome = Svc.Server.run ~crash_at:[ max 1 (total * 9 / 10) ] t in
  (match Svc.Server.check t outcome with
  | Ok () -> ()
  | Error v ->
    failwith
      (Format.asprintf "recovery bench: oracle violated: %a"
         Svc.Sla.pp_violation v));
  let s = Svc.Server.stats t outcome in
  {
    v_compact = compact;
    v_factor = factor;
    v_ops = s.Svc.Sla.ops;
    v_blocks = outcome.Svc.Server.recovery_blocks;
    v_tail = outcome.Svc.Server.recovery_tail;
    v_replayed = outcome.Svc.Server.recovery_replayed;
    v_recovery_cycles = outcome.Svc.Server.recovery_cycles;
    v_availability = s.Svc.Sla.availability;
  }

let recovery_rows ~jobs ~shards ~keys ~ops ~factors ~interval =
  let cells =
    List.concat_map
      (fun compact -> List.map (fun f -> (compact, f)) factors)
      [ false; true ]
  in
  Pool.with_pool ~jobs (fun pool ->
      Pool.map_list pool (recovery_trial ~shards ~keys ~ops ~interval) cells)

let render_recovery ~keys ~interval rows =
  let t =
    Table.create
      ~header:
        [
          "compact"; "hist x"; "ops"; "recov blocks"; "journal tail";
          "replayed"; "recov cyc"; "avail%";
        ]
  in
  let last = ref None in
  List.iter
    (fun r ->
      if !last <> None && !last <> Some r.v_compact then Table.add_sep t;
      last := Some r.v_compact;
      Table.add_row t
        [
          (if r.v_compact then Printf.sprintf "every %d" interval else "off");
          string_of_int r.v_factor;
          string_of_int r.v_ops;
          string_of_int r.v_blocks;
          string_of_int r.v_tail;
          string_of_int r.v_replayed;
          string_of_int r.v_recovery_cycles;
          Table.fmt_f ~decimals:3 (100.0 *. r.v_availability);
        ])
    rows;
  Printf.sprintf "recovery at scale: %d preloaded keys per shard\n" keys
  ^ Table.render t

let recovery_table ~jobs ~shards ~keys ~ops ~factors ~interval =
  render_recovery ~keys ~interval
    (recovery_rows ~jobs ~shards ~keys ~ops ~factors ~interval)

(* ------------------- noisy-neighbor multi-tenant scenario ------------------- *)

(* One zipfian-heavy tenant shares the store with uniform neighbors.
   The skewed tenant concentrates its keys on a few shards; with
   stealing off each shard stays on its home core, so the hot shards
   queue while other cores idle — with stealing on, the hot shards
   migrate to the idle cores mid-run. Both variants serve the
   byte-identical workload on the same scheduler substrate, so the
   table isolates the policy: per-tenant served/p99 next to the worst
   shard's peak queue depth (arrivals modeled at one request per
   [period] cycles) and the recorded steal/migration counts. *)

type noisy_row = {
  n_steal : bool;
  n_stats : Svc.Sla.stats;
  n_tenants : (int * float) array;  (* (served, p99) per tenant *)
  n_worst_depth : int;  (* peak queue depth of the worst shard *)
  n_steals : int;
  n_migrations : int;
}

let noisy_trial ~shards ~ops ~cores ~quantum ~tenants ~skew ~period steal =
  (* Tight per-tenant namespaces keep the zipfian mass of the noisy
     tenant on few shards — the imbalance the scenario is about. The
     client is open-loop: a noisy neighbor's damage is queueing delay,
     so latency is measured against the nominal arrivals (one request
     per [period] cycles), the same arrival model the queue-depth
     column uses. *)
  let client =
    {
      Svc.Client.default with
      ops_per_shard = ops;
      txns = 0;
      key_space = 16;
      loop = Svc.Client.Open { period };
    }
  in
  let cfg =
    {
      Svc.Server.default_cfg with
      Svc.Server.shards;
      client;
      sched = Some { Svc.Sched.cores; quantum; steal };
      tenants = Some (Svc.Client.noisy_tenants ~tenants ~skew);
    }
  in
  let t = Svc.Server.plan cfg in
  let outcome = Svc.Server.run t in
  (match Svc.Server.check t outcome with
  | Ok () -> ()
  | Error v ->
    failwith
      (Format.asprintf "noisy bench: oracle violated: %a" Svc.Sla.pp_violation
         v));
  let views, _headers = Svc.Server.views t outcome in
  let worst = ref 0 in
  for s = 0 to shards - 1 do
    let acks = List.map snd views.(s) in
    let d =
      Svc.Sched.queue_depth ~period ~arrivals:(List.length acks) ~acks
    in
    if d > !worst then worst := d
  done;
  {
    n_steal = steal;
    n_stats = Svc.Server.stats t outcome;
    n_tenants = Svc.Server.tenant_stats t outcome;
    n_worst_depth = !worst;
    n_steals = Svc.Server.steals t outcome;
    n_migrations = List.length (Svc.Server.migrations t outcome);
  }

let noisy_rows ~jobs ~shards ~ops ~cores ~quantum ~tenants ~skew ~period
    ~variants =
  Pool.with_pool ~jobs (fun pool ->
      Pool.map_list pool
        (noisy_trial ~shards ~ops ~cores ~quantum ~tenants ~skew ~period)
        variants)

let render_noisy rows =
  let t =
    Table.create
      ~header:
        [
          "steal"; "tenant"; "served"; "tput/kcyc"; "p99"; "worstQ"; "steals";
          "migs";
        ]
  in
  let first = ref true in
  List.iter
    (fun r ->
      if not !first then Table.add_sep t;
      first := false;
      let s = r.n_stats in
      Table.add_row t
        [
          (if r.n_steal then "on" else "off");
          "all";
          string_of_int s.Svc.Sla.ops;
          Table.fmt_f s.Svc.Sla.throughput;
          Table.fmt_f ~decimals:1 s.Svc.Sla.p99;
          string_of_int r.n_worst_depth;
          string_of_int r.n_steals;
          string_of_int r.n_migrations;
        ];
      Array.iteri
        (fun tn (served, p99) ->
          let tput =
            if s.Svc.Sla.ops = 0 then 0.0
            else
              s.Svc.Sla.throughput *. float_of_int served
              /. float_of_int s.Svc.Sla.ops
          in
          Table.add_row t
            [
              ""; string_of_int tn; string_of_int served; Table.fmt_f tput;
              Table.fmt_f ~decimals:1 p99; ""; ""; "";
            ])
        r.n_tenants)
    rows;
  Table.render t

let noisy_table ~jobs ~shards ~ops ~cores ~quantum ~tenants ~skew ~period
    ~variants =
  render_noisy
    (noisy_rows ~jobs ~shards ~ops ~cores ~quantum ~tenants ~skew ~period
       ~variants)

(* ------------------- contended hot-key scenario ------------------- *)

(* Every tenant CAS-updates one shared key through cross-shard 2PC
   transactions: tid 1 seeds the key, later transactions CAS it with
   the true current value 60% of the time, so the rest abort on
   contention. The table reports the commit/abort split and the tail
   latency under three schedulings of the same store — pinned (one
   shard per core), the scheduler with stealing off (static pinning on
   the deque substrate) and with stealing on. *)

type hot_row = {
  h_label : string;
  h_stats : Svc.Sla.stats;
  h_steals : int;
}

let hot_trial ~shards ~ops ~tenants ~skew ~hot_txns (label, sched) =
  let client = { Svc.Client.default with ops_per_shard = ops; txns = 0 } in
  let cfg =
    {
      Svc.Server.default_cfg with
      Svc.Server.shards;
      client;
      sched;
      tenants = Some (Svc.Client.noisy_tenants ~tenants ~skew);
      hot_txns;
    }
  in
  let t = Svc.Server.plan cfg in
  let outcome = Svc.Server.run t in
  (match Svc.Server.check t outcome with
  | Ok () -> ()
  | Error v ->
    failwith
      (Format.asprintf "hot-key bench: oracle violated: %a"
         Svc.Sla.pp_violation v));
  {
    h_label = label;
    h_stats = Svc.Server.stats t outcome;
    h_steals = Svc.Server.steals t outcome;
  }

let hot_variants ~cores ~quantum =
  [
    ("pinned", None);
    ("steal off", Some { Svc.Sched.cores; quantum; steal = false });
    ("steal on", Some { Svc.Sched.cores; quantum; steal = true });
  ]

let hot_rows ~jobs ~shards ~ops ~cores ~quantum ~tenants ~skew ~hot_txns =
  Pool.with_pool ~jobs (fun pool ->
      Pool.map_list pool
        (hot_trial ~shards ~ops ~tenants ~skew ~hot_txns)
        (hot_variants ~cores ~quantum))

let render_hot rows =
  let t =
    Table.create
      ~header:
        [ "sched"; "ops"; "txC/txA"; "commit%"; "p50"; "p99"; "steals" ]
  in
  List.iter
    (fun r ->
      let s = r.h_stats in
      let resolved = s.Svc.Sla.txn_commits + s.Svc.Sla.txn_aborts in
      let ratio =
        if resolved = 0 then 0.0
        else 100.0 *. float_of_int s.Svc.Sla.txn_commits /. float_of_int resolved
      in
      Table.add_row t
        [
          r.h_label;
          string_of_int s.Svc.Sla.ops;
          Printf.sprintf "%d/%d" s.Svc.Sla.txn_commits s.Svc.Sla.txn_aborts;
          Table.fmt_f ~decimals:1 ratio;
          Table.fmt_f ~decimals:1 s.Svc.Sla.p50;
          Table.fmt_f ~decimals:1 s.Svc.Sla.p99;
          string_of_int r.h_steals;
        ])
    rows;
  Table.render t

let hot_table ~jobs ~shards ~ops ~cores ~quantum ~tenants ~skew ~hot_txns =
  render_hot
    (hot_rows ~jobs ~shards ~ops ~cores ~quantum ~tenants ~skew ~hot_txns)
