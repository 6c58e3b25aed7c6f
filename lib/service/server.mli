(** The serving harness: plans a store from a client workload, drives the
    shard cores through the executor (optionally through a crash
    schedule), and accounts acknowledgements.

    A request is acknowledged when its response's region commits at the
    back-end NVM proxy — under journaled I/O that is exactly when the
    [Out] word enters the durable journal, so "acked" and "durable"
    coincide by construction and {!Sla.check} verifies the store's state
    keeps the same promise.

    Admission control (open-loop clients only): a small probe run under
    the same compiler options and persistence mode estimates service
    cycles per request; arrivals that would find [admit_depth] requests
    already in flight against that estimate are rejected up front. *)

type cfg = {
  shards : int;
  client : Client.cfg;
  batch : int;  (** fence (and thus ack) at least every [batch] requests *)
  mode : Capri_arch.Persist.mode;
  options : Capri_compiler.Options.t;
  config : Capri_arch.Config.t;
  admit_depth : int option;  (** [None] disables admission control *)
  sched : Sched.cfg option;
      (** [None] pins one shard per core; [Some] multiplexes the shards
          over the scheduler's cores with work stealing *)
  tenants : Client.tenant array option;
      (** [None] serves the single-tenant {!Client.generate} workload;
          [Some] generates a {!Client.generate_tenants} workload,
          enables per-tenant weighted admission and tenant-labeled
          accounting *)
  hot_txns : int;  (** hot-key transactions (multi-tenant only) *)
  recovery_jobs : int;
      (** Has no effect: crash recovery
          ({!Capri_arch.Persist.crash_recover}) and recovery-block replay
          ({!Capri_runtime.Recovery.apply_recovery_blocks_per_core}) run
          on the calling domain. The field stays only because the
          repository benchmark's KV configs set it; ROADMAP.md's "For the
          next benchmark change" list drops those settings and then the
          field. *)
  preload : (int * int) array array;
      (** per-shard [(key, value)] pairs bulk-loaded into the store's
          tables as already-committed durable state before the run
          ({!Kvstore.build}'s [?preload]); [\[||\]] serves an empty
          store. The oracle treats preloaded pairs as served history:
          gets against them answer hits from cycle zero. *)
}

val default_cfg : cfg
(** 2 shards, {!Client.default}, batch 8, Capri mode, default compiler
    options, no admission control, pinned, single-tenant,
    [recovery_jobs = 1], no preload. *)

val recovery_penalty :
  Capri_arch.Config.t ->
  blocks:int array -> tails:int array -> replayed:int array -> int
(** The modeled restart cost for one crash:
    [power_cycle_cycles + max over cores of (blocks * recovery_block_cycles
    + tail * journal_replay_cycles + replayed * redo_replay_cycles)] —
    a maximum, not a sum, because every core replays its own recovery
    blocks, journal tail and redo/undo records in parallel. All four
    constants live in {!Capri_arch.Config.t} and are CLI-tunable. *)

type t = {
  cfg : cfg;
  kv : Kvstore.t;
  compiled : Capri_compiler.Compiled.t;
  rejected : int;  (** requests refused by admission control *)
  rejected_at : int list;
      (** arrival cycles of the rejected requests, ascending — the SLO
          timeline bins these into its per-window reject counts *)
  workload : Client.tenant_workload option;
      (** the tenant workload served, when the plan is multi-tenant *)
}

val plan : cfg -> t
(** Generate the workload, apply admission control, build the store and
    compile it through the Capri pipeline. With [cfg.tenants], the
    workload comes from {!Client.generate_tenants} and admission (open
    loop, no txns) is weighted fair-share: each tenant owns
    [admit_depth * weight / total_weight] (at least 1) of the in-flight
    depth per shard, so a noisy tenant is rejected against its own
    slice while its neighbors' slices stay open. A single-tenant plan
    admits against the whole [admit_depth], so [Some 0] rejects every
    arrival. *)

val check_cores : cfg -> unit
(** {!Capri_runtime.Layout.check_cores} of {!Kvstore.cores_for} of the
    store {!plan} would build from [cfg], without building it: raises
    [Invalid_argument] where {!plan} would, so front ends check it
    before serving. *)

type outcome = {
  acks : (int * int) list array;
      (** per core (coordinator last when the store has transactions):
          [(response, ack cycle)] in response order; cycles are absolute
          across crash segments and recovery penalties *)
  final : int list array;  (** complete response streams at completion *)
  images : Capri_arch.Persist.image list;  (** one per crash, in order *)
  cycles : int;  (** total elapsed, modeled recovery time included *)
  recoveries : int;
  recovery_blocks : int;
  recovery_replayed : int;
      (** redo/undo log records recovery re-applied, over all crashes *)
  recovery_tail : int;
      (** durable journal-tail entries re-served across recoveries:
          bounded by {!Capri_arch.Config.t.compact_interval} when
          compaction is on, grows with served history when off *)
  recovery_cycles : int;
  downtime : (int * int * int) list;
      (** one [(crash cycle, service-restored cycle, recovery blocks)]
          window per recovery, in absolute cycles, in crash order *)
  result : Capri_runtime.Executor.result;
}

val machine : ?obs:Capri_obs.Obs.t -> t -> Capri_runtime.Executor.session
(** A new machine for [t]'s store: {!Capri_runtime.Recovery.machine} of
    its compiled program in [t]'s config and mode, journaled I/O on, one
    thread per store core. *)

val run :
  ?obs:Capri_obs.Obs.t ->
  ?machine:Capri_runtime.Executor.session ->
  ?crash_at:int list ->
  t ->
  outcome
(** [machine] (default: a new {!machine} of [t]) is the machine the run
    drives; a held one is rewound under [obs] first, so a loop can serve
    [t] again and again on one machine, each run with its own bundle of
    the same tracer setting. The outcome's [result.memory] is the
    machine's until its next run.

    Each [crash_at] entry is a dynamic-instruction crash point within its
    own segment (first entry in the fresh run, second after the first
    recovery, ...): the run is one {!Capri_runtime.Recovery.drive}, whose
    per-crash hook collects acks and images and charges each restart's
    penalty and downtime. The run always completes: after the schedule
    is exhausted the final segment drains every remaining request. With
    an enabled [obs], the executor's region spans cover every segment
    (the fuzz campaign reads a crash-free run's boundaries back with
    {!Capri_runtime.Executor.boundary_instrs} to aim crash points at
    2PC phases), per-request ack instants land on each core's trace
    track ([txn_commit]/[txn_abort] instants on the coordinator's), each
    served request gets a lifecycle span (admission, batch enqueue,
    proxy commit, ack; 2PC outcomes carry prepare/decision instants and
    link to their item spans by tid) on the core's
    {!Capri_obs.Tracer.track.Request} track, and the metrics registry
    gains [service_acked]/[service_rejected]/[service_recoveries]
    counters — plus [service_txn_prepared]/[service_txn_committed]/
    [service_txn_aborted] when the store carries transactions — and a
    latency histogram labeled by op kind. Histograms, tenant counters and
    request spans all read the {!served} records. Crash segments are
    stitched into one monotone trace timeline (the tracer origin shifts at
    each resume; spans open at a crash close at the crash cycle), so
    {!Capri_obs.Tracer.validate} holds across any crash schedule.

    Raises [Invalid_argument] for a non-empty schedule in [Volatile]
    mode — a volatile store cannot recover. *)

val crash_schedule : crashes:int -> t -> int list
(** [crashes] evenly spaced crash points for {!run}: each segment runs
    [max 1 (instrs / (crashes + 1))] instructions before its crash,
    where [instrs] counts a crash-free reference run of [t]. Empty,
    without running anything, when [crashes <= 0] or the store is
    volatile. *)

val check : t -> outcome -> (unit, Sla.violation) result

val views : t -> outcome -> (int * int) list array * string list
(** {!Sla.normalize} of the acked streams: per-shard
    [(response, ack cycle)] views (coordinator last), slice headers
    stripped. Identity for pinned stores. *)

val steals : t -> outcome -> int
(** Tasks stolen across the whole run (0 for pinned stores), from the
    scheduler's durable per-core counters. *)

val migrations : t -> outcome -> Sched.migration list
(** Shard migrations reconstructed from the completed run's slice
    headers: one entry per consecutive slice pair of a shard that ran
    on different cores. Empty for pinned stores. *)

val stats : t -> outcome -> Sla.stats
(** Computed over {!views}, so a scheduled store's throughput and
    latency count the same served-response population as a pinned
    store's. *)

type served = {
  start : int;
      (** service start: the previous ack (closed loop) or the nominal
          arrival (open loop), clamped to [ack] *)
  ack : int;  (** absolute ack cycle *)
  latency : int;  (** as {!Sla.request_intervals} computes it *)
  response : int;  (** the acked response word *)
  meta : Sla.resp_meta;
      (** op kind, owning tid and key from the protocol replay;
          [{kind = "unknown"; tid = -1; key = -1}] past its end *)
  tenant : int;  (** {!Sla.tenant_of}; 0 for single-tenant plans *)
}
(** One acknowledged request of a run. *)

val served : t -> outcome -> served list array
(** Every served request, derived once from {!views}, one
    {!Sla.replay} and {!Sla.request_intervals}: per logical stream
    (coordinator last), in ack order. Request spans and latency
    histograms ({!run}), the SLO report, timeline and per-tenant rows
    ({!Slo}) all read these records. *)
