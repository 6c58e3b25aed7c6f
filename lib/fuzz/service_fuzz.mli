(** Crash fuzzing of the serving layer ([fuzz/main.exe --service]).

    Seed-pure trials plan one small {!Capri_service.Server} store —
    optionally carrying multi-key transactions — and drive crash
    schedules through it in every requested recoverable persistence
    mode, holding the serializability + acked-durability oracle
    ({!Capri_service.Sla.check}) over each crash image plus the
    completed run. Each mode runs the store crash-free once; that
    oracle run's region spans give the crash points' range and the
    region boundaries half of them aim at, which on a transactional
    store bracket the 2PC phases (after prepare, between votes, after
    the decision, during a participant's apply). Violations are shrunk
    twice: the crash schedule, then the workload at
    whole-unit granularity (single requests or entire transactions,
    surviving tids renumbered), both through
    {!Shrink.shrink_schedule}'s ddmin. Reports are byte-identical at
    any [jobs] count. *)

module Arch = Capri_arch

type cfg = {
  seed : int;
  budget : int;  (** oracle executions (reference + crash runs) *)
  jobs : int;
  modes : Arch.Persist.mode list;  (** [Volatile] entries are ignored *)
  config : Arch.Config.t;
  max_shards : int;
  max_ops : int;  (** per shard *)
  max_schedules : int;  (** crash schedules per trial and mode *)
  max_txns : int;  (** txns per trial store; 0 disables txns *)
  min_txns : int;  (** floor for the per-trial txn draw *)
  steal : bool;
      (** serve every trial through the work-stealing scheduler (random
          core count and quantum; half the trials multi-tenant, some
          with hot-key 2PC), so crash points land inside deque critical
          sections and steal windows — the deque lock RMWs and release
          fences all head regions, so the boundary-aimed half of the
          points hits them by construction *)
  shrink : bool;
}

val default_cfg : cfg

type failure = {
  trial_seed : int;
  mode : Arch.Persist.mode;
  service : string;
  reason : string;
  schedule : int list;
  shrunk_schedule : int list;
  kept_requests : int list;
      (** surviving workload-unit indices (singles shard-major, then
          whole txns), [] = unshrunk *)
  repro : string;
}

type trial = {
  t_seed : int;
  t_schedules : int;
  t_checks : int;
  t_failures : failure list;
}

type report = {
  cfg : cfg;
  trials : int;
  schedules : int;
  checks : int;
  failures : failure list;
}

val service_cfg : cfg -> int -> Capri_service.Server.cfg
(** The seed-derived store shape a trial serves, in the default mode
    ({!run_trial} serves the one plan in each mode in turn) — exposed
    for tests. *)

val service_string : Capri_service.Server.cfg -> string
(** One-line provenance (shape, scheduler, tenants) for reports. *)

val run_trial : cfg -> int -> trial
(** One trial, pure in [cfg.seed + k] — exposed for tests. *)

val run : cfg -> report
val render : report -> string
