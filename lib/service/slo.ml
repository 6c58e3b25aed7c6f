(* SLO accounting over a serving run: turns the crash/recovery instants
   of a {!Server.outcome} into explicit unavailability windows and a
   report — availability, per-recovery replay cost, tail latency inside
   versus outside the recovery windows, and burn against explicit p99 /
   availability targets — plus a windowed {!Capri_obs.Series} timeline
   (throughput, latency percentiles, in-flight depth, rejects, downtime)
   that makes each outage visible as a hole in the series rather than a
   blip in a run-total mean.

   Everything here is a pure function of the outcome (ack streams,
   downtime windows, rejected arrivals), so reports and timelines of a
   deterministic run are byte-identical under any --jobs fan-out. *)

module Series = Capri_obs.Series
module Table = Capri_util.Table
module Stat = Capri_util.Stat

type window = { start : int; finish : int; blocks : int }

type tenant_row = {
  tenant : int;
  t_served : int;
  t_in_recovery : int;
  t_p99 : float;
  t_p99_in : float;
  t_p99_out : float;
}

type report = {
  cycles : int;
  served : int;
  down_cycles : int;
  availability : float;
  windows : window list;
  in_recovery : int;
  p99 : float;
  p99_in : float;
  p99_out : float;
  mean_replay_blocks : float;
  mean_replay_cycles : float;
  slo_p99 : int option;
  slo_avail : float option;
  p99_burn : float option;
  avail_burn : float option;
  tenants : tenant_row list;
}

let windows_of (outcome : Server.outcome) =
  List.map
    (fun (start, finish, blocks) -> { start; finish; blocks })
    outcome.Server.downtime

(* A request counts as "in recovery" when its service interval
   [start, ack] overlaps any unavailability window — it was either cut
   down mid-flight by the crash or served into the replay backlog. *)
let overlaps windows ~start ~ack =
  List.exists (fun w -> start < w.finish && ack > w.start) windows

let pct l = if l = [] then 0.0 else Stat.percentile 99.0 l

(* Every served request of the run, one list over all logical streams. *)
let requests t outcome = List.concat (Array.to_list (Server.served t outcome))

(* Latencies of [reqs] overlapping an outage, and of the rest. *)
let split windows reqs =
  List.fold_left
    (fun (ins, outs) (r : Server.served) ->
      let l = float_of_int r.Server.latency in
      if overlaps windows ~start:r.Server.start ~ack:r.Server.ack then
        (l :: ins, outs)
      else (ins, l :: outs))
    ([], []) reqs

(* The per-tenant tally: each served request attributes to its tenant
   and splits in/out of the recovery windows exactly like the global
   tallies — so a noisy neighbor's tail is visible next to its victims',
   not averaged away. *)
let tally (t : Server.t) windows reqs =
  match t.Server.workload with
  | None -> []
  | Some tw ->
    let by_tenant = Array.make tw.Client.tenants [] in
    List.iter
      (fun (r : Server.served) ->
        by_tenant.(r.Server.tenant) <- r :: by_tenant.(r.Server.tenant))
      reqs;
    Array.to_list
      (Array.mapi
         (fun tenant rs ->
           let ins, outs = split windows rs in
           {
             tenant;
             t_served = List.length rs;
             t_in_recovery = List.length ins;
             t_p99 = pct (ins @ outs);
             t_p99_in = pct ins;
             t_p99_out = pct outs;
           })
         by_tenant)

let tenant_rows ~t outcome =
  tally t (windows_of outcome) (requests t outcome)

let report ?slo_p99 ?slo_avail ~(t : Server.t) (outcome : Server.outcome) =
  let windows = windows_of outcome in
  let reqs = requests t outcome in
  let lat_in, lat_out = split windows reqs in
  let down_cycles =
    List.fold_left (fun acc w -> acc + (w.finish - w.start)) 0 windows
  in
  let cycles = outcome.Server.cycles in
  let availability =
    if cycles = 0 then 1.0
    else 1.0 -. (float_of_int down_cycles /. float_of_int cycles)
  in
  let recoveries = outcome.Server.recoveries in
  let p99 = pct (lat_in @ lat_out) in
  {
    cycles;
    served = List.length reqs;
    down_cycles;
    availability;
    windows;
    in_recovery = List.length lat_in;
    p99;
    p99_in = pct lat_in;
    p99_out = pct lat_out;
    mean_replay_blocks =
      (if recoveries = 0 then 0.0
       else float_of_int outcome.Server.recovery_blocks /. float_of_int recoveries);
    mean_replay_cycles =
      (if recoveries = 0 then 0.0
       else float_of_int outcome.Server.recovery_cycles /. float_of_int recoveries);
    slo_p99;
    slo_avail;
    p99_burn =
      Option.map
        (fun target -> p99 /. float_of_int (max 1 target))
        slo_p99;
    avail_burn =
      Option.map
        (fun target ->
          (* error-budget burn: observed unavailability over allowed *)
          let budget = 1.0 -. target in
          let burnt = 1.0 -. availability in
          if budget <= 0.0 then if burnt <= 0.0 then 0.0 else infinity
          else burnt /. budget)
        slo_avail;
    tenants = tally t windows reqs;
  }

(* ------------------- timeline ------------------- *)

(* Window width: an explicit [width], or the run split into ~24 windows
   (floored at 256 cycles) — a function of the outcome only, so the
   default is as deterministic as the run. *)
let default_windows = 24
let min_width = 256

let timeline ?width ~(t : Server.t) (outcome : Server.outcome) =
  let width =
    match width with
    | Some w -> w
    | None -> max min_width (outcome.Server.cycles / default_windows)
  in
  let s = Series.create ~width () in
  List.iter
    (fun (r : Server.served) ->
      let ack = r.Server.ack in
      Series.inc s ~ts:ack "ops";
      Series.observe s ~ts:ack "latency_cycles" r.Server.latency;
      (* every window the service interval touches counts one in-flight
         request — a windowed queue-depth proxy *)
      let w0 = Series.window_of s ~ts:r.Server.start in
      let w1 = Series.window_of s ~ts:ack in
      for w = w0 to w1 do
        Series.add s ~ts:(w * width) "inflight" 1
      done)
    (requests t outcome);
  List.iter (fun ts -> Series.inc s ~ts "rejected") t.Server.rejected_at;
  List.iter
    (fun w ->
      Series.inc s ~ts:w.start "recoveries";
      (* charge each window its overlap with the outage *)
      let w0 = Series.window_of s ~ts:w.start in
      let w1 = Series.window_of s ~ts:(w.finish - 1) in
      for i = w0 to w1 do
        let lo = max w.start (i * width) in
        let hi = min w.finish ((i + 1) * width) in
        if hi > lo then Series.add s ~ts:(i * width) "down_cycles" (hi - lo)
      done)
    (windows_of outcome);
  s

let render_timeline s =
  let width = Series.width s in
  let tbl =
    Table.create
      ~header:
        [ "win"; "from"; "ops"; "tput/kcyc"; "p50"; "p99"; "inflight";
          "rej"; "down"; "recov" ]
  in
  for w = 0 to Series.last_window s do
    let ops = Series.counter s ~window:w "ops" in
    let tput = 1000.0 *. float_of_int ops /. float_of_int width in
    Table.add_row tbl
      [
        string_of_int w;
        string_of_int (w * width);
        string_of_int ops;
        Table.fmt_f tput;
        string_of_int (Series.quantile s ~window:w "latency_cycles" 50.0);
        string_of_int (Series.quantile s ~window:w "latency_cycles" 99.0);
        string_of_int (Series.counter s ~window:w "inflight");
        string_of_int (Series.counter s ~window:w "rejected");
        string_of_int (Series.counter s ~window:w "down_cycles");
        string_of_int (Series.counter s ~window:w "recoveries");
      ]
  done;
  Table.render tbl

(* ------------------- rendering ------------------- *)

let pp_report ppf r =
  Format.fprintf ppf
    "%d served in %d cycles, %d recovery window(s) totalling %d cycles:@\n"
    r.served r.cycles (List.length r.windows) r.down_cycles;
  Format.fprintf ppf "  availability %.4f%%, p99 %.0f cycles"
    (100.0 *. r.availability) r.p99;
  Format.fprintf ppf " (%.0f during recovery over %d reqs, %.0f outside)@\n"
    r.p99_in r.in_recovery r.p99_out;
  List.iteri
    (fun i w ->
      Format.fprintf ppf "  outage %d: cycles %d..%d (%d down, %d blocks replayed)@\n"
        i w.start w.finish (w.finish - w.start) w.blocks)
    r.windows;
  if r.windows <> [] then
    Format.fprintf ppf "  mean replay per recovery: %.1f blocks, %.0f cycles@\n"
      r.mean_replay_blocks r.mean_replay_cycles;
  List.iter
    (fun row ->
      Format.fprintf ppf
        "  tenant %d: %d served, p99 %.0f (%.0f during recovery over %d \
         reqs, %.0f outside)@\n"
        row.tenant row.t_served row.t_p99 row.t_p99_in row.t_in_recovery
        row.t_p99_out)
    r.tenants;
  (match (r.slo_p99, r.p99_burn) with
  | Some target, Some burn ->
    Format.fprintf ppf "  SLO p99 <= %d: %s (burn %.2fx)@\n" target
      (if burn <= 1.0 then "met" else "MISSED")
      burn
  | _ -> ());
  match (r.slo_avail, r.avail_burn) with
  | Some target, Some burn ->
    Format.fprintf ppf "  SLO availability >= %.4f%%: %s (error budget burn %.2fx)@\n"
      (100.0 *. target)
      (if r.availability >= target then "met" else "MISSED")
      burn
  | _ -> ()
