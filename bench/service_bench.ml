(* Serving-layer benchmark scenarios: throughput, latency percentiles,
   modeled recovery time, availability and transaction outcomes for the
   capri.service KV store. Each scenario is a value — the trials it runs,
   how each trial's store is configured and crashed, what a trial reports
   and how that report renders — over one checked trial and one table
   skeleton.

   Trials are seed-pure and fan out over the Pool in input order, so each
   rendered table is byte-identical at any --jobs count (enforced by
   service_smoke as part of `dune runtest`). Every trial also holds the
   acked-durability oracle; a violation aborts the benchmark rather than
   report numbers for a broken store. *)

module Arch = Capri_arch
module Svc = Capri_service
module Pool = Capri_util.Pool
module Table = Capri_util.Table

type ('cell, 'row) scenario = {
  name : string;  (* names the scenario in an oracle violation *)
  cells : 'cell list;  (* one trial per cell, in table order *)
  cfg : 'cell -> Svc.Server.cfg;
  schedule : Svc.Server.t -> int list;  (* crash points for the plan *)
  row : Svc.Server.t -> Svc.Server.outcome -> 'row;  (* a trial's report *)
  header : string list;
  lines : 'cell -> 'row -> string list list;  (* a trial's table lines *)
  group : 'cell -> string;  (* a separator goes where this changes *)
  frame : ('cell * 'row) list -> string -> string;  (* wraps the table *)
}

(* The checked trial: a scenario's schedule makes a crash-free reference
   run only when it asks for crashes; a failed oracle raises [Violated],
   naming the scenario. *)
exception Violated of string

let trial sc cell =
  let t = Svc.Server.plan (sc.cfg cell) in
  let outcome = Svc.Server.run ~crash_at:(sc.schedule t) t in
  (match Svc.Server.check t outcome with
  | Ok () -> ()
  | Error v ->
    raise
      (Violated
         (Format.asprintf "%s bench: oracle violated: %a" sc.name
            Svc.Sla.pp_violation v)));
  (cell, sc.row t outcome)

(* Every trial's [(cell, row)], in cell order, and the rendered table. *)
let table ~jobs sc =
  let rows =
    Pool.with_pool ~jobs (fun pool -> Pool.map_list pool (trial sc) sc.cells)
  in
  let tbl = Table.create ~header:sc.header in
  ignore
    (List.fold_left
       (fun prev (cell, row) ->
         let group = Some (sc.group cell) in
         if prev <> None && prev <> group then Table.add_sep tbl;
         List.iter (Table.add_row tbl) (sc.lines cell row);
         group)
       None rows);
  (rows, sc.frame rows (Table.render tbl))

(* ------------------- mode x mix ------------------- *)

(* The five persistence design points under the three YCSB-style mixes;
   [txns] weaves cross-shard 2PC transactions into every trial, and the
   txC/txA column tallies their commits/aborts. *)

let modes ~shards ~ops ~crashes ~txns =
  {
    name = "service";
    cells =
      List.concat_map
        (fun mode ->
          List.map (fun mix -> (mode, mix)) Svc.Client.[ A; B; C ])
        Arch.Persist.all_modes;
    cfg =
      (fun (mode, mix) ->
        {
          Svc.Server.default_cfg with
          Svc.Server.shards;
          client =
            {
              Svc.Client.default with
              Svc.Client.mix;
              ops_per_shard = ops;
              txns;
            };
          mode;
        });
    schedule = Svc.Server.crash_schedule ~crashes;
    row = Svc.Server.stats;
    header =
      [
        "mode"; "mix"; "ops"; "txC/txA"; "tput/kcyc"; "p50"; "p99"; "recov";
        "mean recov cyc"; "avail%";
      ];
    lines =
      (fun (mode, mix) s ->
        [
          [
            Arch.Persist.mode_name mode; Svc.Client.mix_name mix;
            string_of_int s.Svc.Sla.ops;
            Printf.sprintf "%d/%d" s.Svc.Sla.txn_commits s.Svc.Sla.txn_aborts;
            Table.fmt_f s.Svc.Sla.throughput;
            Table.fmt_f ~decimals:1 s.Svc.Sla.p50;
            Table.fmt_f ~decimals:1 s.Svc.Sla.p99;
            string_of_int s.Svc.Sla.recoveries;
            Table.fmt_f ~decimals:1 s.Svc.Sla.mean_recovery;
            Table.fmt_f ~decimals:3 (100.0 *. s.Svc.Sla.availability);
          ];
        ]);
    group = (fun (mode, _) -> Arch.Persist.mode_name mode);
    frame = (fun _ table -> table);
  }

(* ------------------- rolling-crash availability ------------------- *)

(* Crashes arrive while an open-loop client keeps offering load: the
   run's unavailability is measured, not inferred — each crash opens an
   explicit downtime window (power cycle + recovery-block replay) during
   which arrivals pile into the replay backlog, and the Slo report
   splits tail latency into requests that overlapped a window versus
   the rest. Volatile is excluded (it cannot recover). Below the mode
   table, the Capri run's windowed timeline shows the service as a
   function of time, crashes visible as holes. *)

type rolling_row = {
  report : Svc.Slo.report;
  timeline : string;  (* rendered windowed series *)
}

let rolling ~shards ~ops ~crashes ~period =
  {
    name = "rolling";
    cells = List.filter Arch.Persist.crash_recoverable Arch.Persist.all_modes;
    cfg =
      (fun mode ->
        {
          Svc.Server.default_cfg with
          Svc.Server.shards;
          client =
            {
              Svc.Client.default with
              Svc.Client.mix = Svc.Client.A;
              ops_per_shard = ops;
              loop = Svc.Client.Open { period };
            };
          mode;
        });
    schedule = Svc.Server.crash_schedule ~crashes;
    row =
      (fun t o ->
        {
          report = Svc.Slo.report ~t o;
          timeline = Svc.Slo.render_timeline (Svc.Slo.timeline ~t o);
        });
    header =
      [
        "mode"; "ops"; "avail%"; "downW"; "down cyc"; "p99 in"; "p99 out";
        "replay cyc/recov";
      ];
    lines =
      (fun mode r ->
        let rep = r.report in
        [
          [
            Arch.Persist.mode_name mode;
            string_of_int rep.Svc.Slo.served;
            Table.fmt_f ~decimals:3 (100.0 *. rep.Svc.Slo.availability);
            string_of_int (List.length rep.Svc.Slo.windows);
            string_of_int rep.Svc.Slo.down_cycles;
            Table.fmt_f ~decimals:1 rep.Svc.Slo.p99_in;
            Table.fmt_f ~decimals:1 rep.Svc.Slo.p99_out;
            Table.fmt_f ~decimals:1 rep.Svc.Slo.mean_replay_cycles;
          ];
        ]);
    group = (fun _ -> "");
    frame =
      (fun rows table ->
        match List.assoc_opt Arch.Persist.Capri rows with
        | Some r -> table ^ "\ncapri timeline:\n" ^ r.timeline
        | None -> table);
  }

(* ------------------- recovery at scale ------------------- *)

(* How restart cost scales with served history on a production-size
   store. Every trial preloads [keys] committed pairs per shard through
   the bulk loader (so the store starts at scale without serving
   millions of puts), serves [ops * factor] requests per shard, and
   crashes once late in the run — the accumulated history is what
   recovery pays for. With journal compaction off the durable tail
   grows with the factor and the recovery bill with it; with compaction
   on the tail is bounded by the compact interval, so recovery cost
   stays flat while the store serves 10x the history. Raises
   [Invalid_argument] when the preload cannot fit the heap. *)

type recovery_row = {
  v_stats : Svc.Sla.stats;
  v_blocks : int;  (* recovery blocks replayed at the crash *)
  v_tail : int;  (* durable journal-tail entries re-served *)
  v_replayed : int;  (* redo/undo log records re-applied *)
  v_recovery_cycles : int;
}

let recovery ~shards ~keys ~ops ~factors ~interval =
  let preload = Svc.Kvstore.synthetic_preload ~shards ~keys in
  {
    name = "recovery";
    cells =
      List.concat_map
        (fun compact -> List.map (fun f -> (compact, f)) factors)
        [ false; true ];
    cfg =
      (fun (compact, factor) ->
        {
          Svc.Server.default_cfg with
          Svc.Server.shards;
          client =
            {
              Svc.Client.default with
              Svc.Client.mix = Svc.Client.A;
              key_space = keys;
              ops_per_shard = ops * factor;
              txns = 0;
            };
          mode = Arch.Persist.Capri;
          config =
            {
              Arch.Config.sim_default with
              Arch.Config.compact_interval = (if compact then interval else 0);
            };
          preload;
        });
    (* one crash at 90% of the reference run: almost all of the trial's
       history is already served and journaled when the power fails *)
    schedule =
      (fun t ->
        let total =
          (Svc.Server.run t).Svc.Server.result.Capri_runtime.Executor.instrs
        in
        [ max 1 (total * 9 / 10) ]);
    row =
      (fun t o ->
        {
          v_stats = Svc.Server.stats t o;
          v_blocks = o.Svc.Server.recovery_blocks;
          v_tail = o.Svc.Server.recovery_tail;
          v_replayed = o.Svc.Server.recovery_replayed;
          v_recovery_cycles = o.Svc.Server.recovery_cycles;
        });
    header =
      [
        "compact"; "hist x"; "ops"; "recov blocks"; "journal tail"; "replayed";
        "recov cyc"; "avail%";
      ];
    lines =
      (fun (compact, factor) r ->
        [
          [
            (if compact then Printf.sprintf "every %d" interval else "off");
            string_of_int factor;
            string_of_int r.v_stats.Svc.Sla.ops;
            string_of_int r.v_blocks;
            string_of_int r.v_tail;
            string_of_int r.v_replayed;
            string_of_int r.v_recovery_cycles;
            Table.fmt_f ~decimals:3 (100.0 *. r.v_stats.Svc.Sla.availability);
          ];
        ]);
    group = (fun (compact, _) -> string_of_bool compact);
    frame =
      (fun _ table ->
        Printf.sprintf "recovery at scale: %d preloaded keys per shard\n" keys
        ^ table);
  }

(* ------------------- noisy neighbor ------------------- *)

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
  n_stats : Svc.Sla.stats;
  n_tenants : Svc.Slo.tenant_row list;
  n_worst_depth : int;  (* peak queue depth of the worst shard *)
  n_steals : int;
  n_migrations : int;
}

let noisy ~shards ~ops ~cores ~quantum ~tenants ~skew ~period ~variants =
  {
    name = "noisy";
    cells = variants;
    (* Tight per-tenant namespaces keep the zipfian mass of the noisy
       tenant on few shards — the imbalance the scenario is about. The
       client is open-loop: a noisy neighbor's damage is queueing delay,
       so latency is measured against the nominal arrivals (one request
       per [period] cycles), the same arrival model the queue-depth
       column uses. *)
    cfg =
      (fun steal ->
        {
          Svc.Server.default_cfg with
          Svc.Server.shards;
          client =
            {
              Svc.Client.default with
              ops_per_shard = ops;
              txns = 0;
              key_space = 16;
              loop = Svc.Client.Open { period };
            };
          sched = Some { Svc.Sched.cores; quantum; steal };
          tenants = Some (Svc.Client.noisy_tenants ~tenants ~skew);
        });
    schedule = (fun _ -> []);
    row =
      (fun t o ->
        let views, _headers = Svc.Server.views t o in
        let worst = ref 0 in
        for s = 0 to shards - 1 do
          let acks = List.map snd views.(s) in
          let d =
            Svc.Sched.queue_depth ~period ~arrivals:(List.length acks) ~acks
          in
          if d > !worst then worst := d
        done;
        {
          n_stats = Svc.Server.stats t o;
          n_tenants = Svc.Slo.tenant_rows ~t o;
          n_worst_depth = !worst;
          n_steals = Svc.Server.steals t o;
          n_migrations = List.length (Svc.Server.migrations t o);
        });
    header =
      [
        "steal"; "tenant"; "served"; "tput/kcyc"; "p99"; "worstQ"; "steals";
        "migs";
      ];
    lines =
      (fun steal r ->
        let s = r.n_stats in
        [
          (if steal then "on" else "off");
          "all";
          string_of_int s.Svc.Sla.ops;
          Table.fmt_f s.Svc.Sla.throughput;
          Table.fmt_f ~decimals:1 s.Svc.Sla.p99;
          string_of_int r.n_worst_depth;
          string_of_int r.n_steals;
          string_of_int r.n_migrations;
        ]
        :: List.map
             (fun (tr : Svc.Slo.tenant_row) ->
               let tput =
                 if s.Svc.Sla.ops = 0 then 0.0
                 else
                   s.Svc.Sla.throughput *. float_of_int tr.Svc.Slo.t_served
                   /. float_of_int s.Svc.Sla.ops
               in
               [
                 ""; string_of_int tr.Svc.Slo.tenant;
                 string_of_int tr.Svc.Slo.t_served; Table.fmt_f tput;
                 Table.fmt_f ~decimals:1 tr.Svc.Slo.t_p99; ""; ""; "";
               ])
             r.n_tenants);
    group = string_of_bool;
    frame = (fun _ table -> table);
  }

(* ------------------- contended hot key ------------------- *)

(* Every tenant CAS-updates one shared key through cross-shard 2PC
   transactions: tid 1 seeds the key, later transactions CAS it with
   the true current value 60% of the time, so the rest abort on
   contention. The table reports the commit/abort split and the tail
   latency under three schedulings of the same store — pinned (one
   shard per core), the scheduler with stealing off (static pinning on
   the deque substrate) and with stealing on. *)

let hot_key ~shards ~ops ~cores ~quantum ~tenants ~skew ~hot_txns =
  {
    name = "hot-key";
    cells =
      [
        ("pinned", None);
        ("steal off", Some { Svc.Sched.cores; quantum; steal = false });
        ("steal on", Some { Svc.Sched.cores; quantum; steal = true });
      ];
    cfg =
      (fun (_, sched) ->
        {
          Svc.Server.default_cfg with
          Svc.Server.shards;
          client = { Svc.Client.default with ops_per_shard = ops; txns = 0 };
          sched;
          tenants = Some (Svc.Client.noisy_tenants ~tenants ~skew);
          hot_txns;
        });
    schedule = (fun _ -> []);
    row = (fun t o -> (Svc.Server.stats t o, Svc.Server.steals t o));
    header = [ "sched"; "ops"; "txC/txA"; "commit%"; "p50"; "p99"; "steals" ];
    lines =
      (fun (label, _) (s, steals) ->
        let resolved = s.Svc.Sla.txn_commits + s.Svc.Sla.txn_aborts in
        let ratio =
          if resolved = 0 then 0.0
          else
            100.0 *. float_of_int s.Svc.Sla.txn_commits /. float_of_int resolved
        in
        [
          [
            label;
            string_of_int s.Svc.Sla.ops;
            Printf.sprintf "%d/%d" s.Svc.Sla.txn_commits s.Svc.Sla.txn_aborts;
            Table.fmt_f ~decimals:1 ratio;
            Table.fmt_f ~decimals:1 s.Svc.Sla.p50;
            Table.fmt_f ~decimals:1 s.Svc.Sla.p99;
            string_of_int steals;
          ];
        ]);
    group = (fun _ -> "");
    frame = (fun _ table -> table);
  }
