(** SLO and availability accounting over a serving run.

    Turns the crash/recovery history of a {!Server.outcome} into
    explicit unavailability windows and a report — availability
    percentage, per-recovery replay cost, p99 inside versus outside the
    recovery windows, and burn against explicit targets — plus a
    windowed {!Capri_obs.Series} timeline of throughput, latency
    percentiles, in-flight depth, rejects and downtime per window.

    Pure functions of the outcome, read from its {!Server.served}
    records: reports and timelines of a deterministic run render
    byte-identically under any [--jobs]. *)

type window = { start : int; finish : int; blocks : int }
(** One unavailability window in absolute cycles: service stops at the
    crash ([start]), resumes once the power cycle and the [blocks]
    recovery-block replays finish ([finish]). *)

type tenant_row = {
  tenant : int;
  t_served : int;
  t_in_recovery : int;
  t_p99 : float;
  t_p99_in : float;  (** p99 of this tenant's requests overlapping an outage *)
  t_p99_out : float;
}
(** One tenant's share of the served requests ({!Server.served}, each
    attributed via {!Sla.tenant_of}). *)

type report = {
  cycles : int;  (** total run length, recovery time included *)
  served : int;  (** acknowledged requests *)
  down_cycles : int;
  availability : float;  (** fraction of the run outside outages, [0,1] *)
  windows : window list;  (** one per recovery, in crash order *)
  in_recovery : int;
      (** requests whose service interval overlapped an outage *)
  p99 : float;
  p99_in : float;  (** p99 of the requests overlapping an outage *)
  p99_out : float;  (** p99 of the rest *)
  mean_replay_blocks : float;
  mean_replay_cycles : float;
  slo_p99 : int option;
  slo_avail : float option;
  p99_burn : float option;  (** observed p99 over the target *)
  avail_burn : float option;
      (** error-budget burn: observed unavailability over allowed *)
  tenants : tenant_row list;
      (** per-tenant rows in tenant order; empty for single-tenant
          plans *)
}

val tenant_rows : t:Server.t -> Server.outcome -> tenant_row list
(** The per-tenant tally, in tenant order (the {!report}'s [tenants]);
    empty for single-tenant plans. *)

val report :
  ?slo_p99:int -> ?slo_avail:float -> t:Server.t -> Server.outcome -> report

val timeline : ?width:int -> t:Server.t -> Server.outcome -> Capri_obs.Series.t
(** Windowed series over the run: counters [ops], [inflight] (requests
    whose service interval touches the window), [rejected],
    [down_cycles] (outage overlap), [recoveries], and histogram
    [latency_cycles] (observed at the ack). Default [width] splits the
    run into ~24 windows, floored at 256 cycles. *)

val render_timeline : Capri_obs.Series.t -> string
(** ASCII table, one row per window from 0 to the last populated one. *)

val pp_report : Format.formatter -> report -> unit
