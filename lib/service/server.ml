module Arch = Capri_arch
module Comp = Capri_compiler
module Runtime = Capri_runtime
module Obs = Capri_obs.Obs
module Metrics = Capri_obs.Metrics
module Tracer = Capri_obs.Tracer
module Executor = Runtime.Executor

type cfg = {
  shards : int;
  client : Client.cfg;
  batch : int;
  mode : Arch.Persist.mode;
  options : Comp.Options.t;
  config : Arch.Config.t;
  admit_depth : int option;
  sched : Sched.cfg option;
  tenants : Client.tenant array option;
  hot_txns : int;
  recovery_jobs : int;
      (* domain-pool width for per-core recovery planning and
         recovery-block replay; results are byte-identical at any value *)
  preload : (int * int) array array;
      (* per-shard (key, value) pairs bulk-loaded into the store's
         tables as already-committed durable state; [||] = empty store *)
}

let default_cfg =
  {
    shards = 2;
    client = Client.default;
    batch = 8;
    mode = Arch.Persist.Capri;
    options = Comp.Options.default;
    config = Arch.Config.sim_default;
    admit_depth = None;
    sched = None;
    tenants = None;
    hot_txns = 0;
    recovery_jobs = 1;
    preload = [||];
  }

type t = {
  cfg : cfg;
  kv : Kvstore.t;
  compiled : Comp.Compiled.t;
  rejected : int;
  rejected_at : int list;
  workload : Client.tenant_workload option;
}

(* Modeled recovery time (constants live in {!Arch.Config} so the CLI
   and benches can tune them): a fixed power-cycle cost (firmware +
   proxy drain), plus per-core replay work — recovery blocks rebuilding
   pruned checkpoint slots, redo/undo log records re-applied, and the
   durable journal tail re-served for exactly-once acks. Each core
   replays its own log and its own blocks independently, so the restart
   finishes with its slowest core: the model charges the per-core
   MAXIMUM, not the serial sum. Compaction bounds the journal-tail term
   by the compact interval instead of by history. *)
let recovery_penalty (config : Arch.Config.t) ~blocks ~tails ~replayed =
  let worst = ref 0 in
  Array.iteri
    (fun c b ->
      let cost =
        (b * config.Arch.Config.recovery_block_cycles)
        + (tails.(c) * config.Arch.Config.journal_replay_cycles)
        + (replayed.(c) * config.Arch.Config.redo_replay_cycles)
      in
      if cost > !worst then worst := cost)
    blocks;
  config.Arch.Config.power_cycle_cycles + !worst

(* Estimated service cycles per request, measured by running a small
   probe store under the same compiler options and persistence mode.
   Admission control prices open-loop arrivals against this estimate. *)
let calibrate cfg =
  let probe_client =
    {
      Client.mix = Client.A;
      key_space = 16;
      ops_per_shard = 32;
      skew = 0.0;
      loop = Client.Closed;
      seed = 7;
      txns = 0;
      txn_items = 2;
    }
  in
  let workload = Client.generate probe_client ~shards:1 in
  let kv =
    Kvstore.build ~batch:cfg.batch ~key_space:16
      ~requests:workload.Client.requests ()
  in
  let compiled = Comp.Pipeline.compile cfg.options kv.Kvstore.program in
  let session =
    Executor.start ~config:cfg.config ~mode:cfg.mode ~journal_io:true
      ~check_threshold:cfg.options.Comp.Options.threshold
      ~program:compiled.Comp.Compiled.program
      ~threads:(Kvstore.thread_specs kv) ()
  in
  match Executor.run session with
  | Executor.Finished r -> max 1 (r.Executor.cycles / 32)
  | Executor.Crashed _ -> assert false

let admit ~period ~depth ~svc requests =
  let rejected = ref [] in  (* arrival cycles, reversed *)
  let admitted =
    Array.map
      (fun shard_reqs ->
        (* estimated finish times of admitted requests, newest first
           (decreasing), so counting the in-flight set is a prefix walk *)
        let finishes = ref [] in
        let last_finish = ref 0 in
        let kept = ref [] in
        Array.iteri
          (fun i r ->
            let arrival = i * period in
            let rec in_flight n = function
              | f :: rest when f > arrival -> in_flight (n + 1) rest
              | _ -> n
            in
            if in_flight 0 !finishes >= depth then
              rejected := arrival :: !rejected
            else begin
              let f = max arrival !last_finish + svc in
              last_finish := f;
              finishes := f :: !finishes;
              kept := r :: !kept
            end)
          shard_reqs;
        Array.of_list (List.rev !kept))
      requests
  in
  (admitted, List.sort Int.compare !rejected)

(* Weighted fair-share admission, the multi-tenant replacement for the
   global [admit] gate: each tenant owns a slice of the in-flight depth
   proportional to its weight (at least 1), counted per shard over the
   same service-time estimate. A noisy tenant exhausts its own slice
   and is rejected while its neighbors' slices stay open — rejection
   isolates tenants instead of the loudest one starving the gate. *)
let admit_fair ~period ~depth ~svc ~space ~weights requests =
  let nt = Array.length weights in
  let total_w = max 1 (Array.fold_left ( + ) 0 weights) in
  let share t = max 1 (depth * weights.(t) / total_w) in
  let tenant_of (r : Wire.request) =
    if r.Wire.key >= 1 && r.Wire.key <= nt * space then
      Wire.tenant_of_key ~space r.Wire.key
    else 0
  in
  let rejected = ref [] in  (* arrival cycles, reversed *)
  let admitted =
    Array.map
      (fun shard_reqs ->
        (* (finish, tenant) of admitted requests, newest first *)
        let finishes = ref [] in
        let last_finish = ref 0 in
        let kept = ref [] in
        Array.iteri
          (fun i r ->
            let arrival = i * period in
            let tn = tenant_of r in
            let rec in_flight n = function
              | (f, t') :: rest when f > arrival ->
                in_flight (if t' = tn then n + 1 else n) rest
              | _ -> n
            in
            if in_flight 0 !finishes >= share tn then
              rejected := arrival :: !rejected
            else begin
              let f = max arrival !last_finish + svc in
              last_finish := f;
              finishes := (f, tn) :: !finishes;
              kept := r :: !kept
            end)
          shard_reqs;
        Array.of_list (List.rev !kept))
      requests
  in
  (admitted, List.sort Int.compare !rejected)

let plan_workload cfg (tw : Client.tenant_workload) =
  if cfg.shards < 1 then invalid_arg "Server.plan: shards must be positive";
  let requests = tw.Client.base.Client.requests in
  (* admission control would have to drop whole transactions to stay
     protocol-consistent; with txns present it is disabled *)
  let requests, rejected_at =
    match (cfg.client.Client.loop, cfg.admit_depth) with
    | Client.Open { period }, Some depth
      when depth >= 0 && Array.length tw.Client.base.Client.txns = 0 ->
      admit_fair ~period ~depth ~svc:(calibrate cfg) ~space:tw.Client.space
        ~weights:tw.Client.weights requests
    | _ -> (requests, [])
  in
  let kv =
    Kvstore.build ~batch:cfg.batch ~txns:tw.Client.base.Client.txns
      ~key_space:tw.Client.key_space ~requests ?sched:cfg.sched
      ~preload:cfg.preload ()
  in
  let compiled = Comp.Pipeline.compile cfg.options kv.Kvstore.program in
  {
    cfg;
    kv;
    compiled;
    rejected = List.length rejected_at;
    rejected_at;
    workload = Some tw;
  }

let plan cfg =
  if cfg.shards < 1 then invalid_arg "Server.plan: shards must be positive";
  match cfg.tenants with
  | Some tenants ->
    let tw =
      Client.generate_tenants ~hot_txns:cfg.hot_txns cfg.client ~tenants
        ~shards:cfg.shards
    in
    plan_workload cfg tw
  | None ->
    let workload = Client.generate cfg.client ~shards:cfg.shards in
    let requests = workload.Client.requests in
    (* admission control would have to drop whole transactions to stay
       protocol-consistent; with txns present it is disabled *)
    let requests, rejected_at =
      match (cfg.client.Client.loop, cfg.admit_depth) with
      | Client.Open { period }, Some depth
        when depth >= 0 && Array.length workload.Client.txns = 0 ->
        admit ~period ~depth ~svc:(calibrate cfg) requests
      | _ -> (requests, [])
    in
    let kv =
      Kvstore.build ~batch:cfg.batch ~txns:workload.Client.txns
        ~key_space:cfg.client.Client.key_space ~requests ?sched:cfg.sched
        ~preload:cfg.preload ()
    in
    let compiled = Comp.Pipeline.compile cfg.options kv.Kvstore.program in
    {
      cfg;
      kv;
      compiled;
      rejected = List.length rejected_at;
      rejected_at;
      workload = None;
    }

type outcome = {
  acks : (int * int) list array;
  final : int list array;
  images : Arch.Persist.image list;
  cycles : int;
  recoveries : int;
  recovery_blocks : int;
  recovery_replayed : int;
      (* redo/undo log records recovery re-applied, summed over
         recoveries (per-crash per-core detail is in [images]) *)
  recovery_tail : int;
      (* durable journal-tail entries re-served across recoveries —
         bounded by the compact interval when compaction is on, grows
         with served history when it is off *)
  recovery_cycles : int;
  downtime : (int * int * int) list;
      (* per recovery: (crash cycle, service-restored cycle, blocks) in
         absolute cycles *)
  result : Executor.result;
}

let instrument obs t outcome =
  if Obs.enabled obs then begin
    let m = obs.Obs.metrics in
    let shards = t.kv.Kvstore.shards in
    let workers = Kvstore.workers t.kv in
    Metrics.Counter.add
      (Metrics.counter m "service_rejected")
      t.rejected;
    Metrics.Counter.add (Metrics.counter m "service_recoveries")
      outcome.recoveries;
    if Array.length t.kv.Kvstore.txns > 0 then begin
      let commits, aborts = Sla.txn_outcomes t.kv in
      (* prepares = votes cast = participants summed over transactions *)
      let prepares =
        Array.fold_left
          (fun acc (tx : Wire.txn) ->
            let seen = Hashtbl.create 4 in
            Array.iter (fun (s, _) -> Hashtbl.replace seen s ()) tx.Wire.items;
            acc + Hashtbl.length seen)
          0 t.kv.Kvstore.txns
      in
      Metrics.Counter.add (Metrics.counter m "service_txn_prepared") prepares;
      Metrics.Counter.add (Metrics.counter m "service_txn_committed") commits;
      Metrics.Counter.add (Metrics.counter m "service_txn_aborted") aborts
    end;
    let tr = obs.Obs.tracer in
    let loop = t.cfg.client.Client.loop in
    (* Scheduler accounting: total steals from the per-core NVM
       counters, migrations from the slice headers in the acked
       streams — one trace instant on the thief's core track per
       migrated shard, stamped with the ack cycle of the slice that
       moved. *)
    (match t.kv.Kvstore.sched with
    | None -> ()
    | Some _ ->
      Metrics.Counter.add
        (Metrics.counter m "service_steal_count")
        (Kvstore.steal_total t.kv outcome.result.Executor.memory);
      let slices, _ =
        Sched.demux ~word:fst ~shards (Array.sub outcome.acks 0 workers)
      in
      let migs = ref 0 in
      Array.iter
        (fun per_shard ->
          ignore
            (List.fold_left
               (fun prev (sl : _ Sched.slice) ->
                 (match prev with
                 | Some (p : _ Sched.slice) when p.Sched.core <> sl.Sched.core
                   ->
                   incr migs;
                   Tracer.instant tr
                     ~track:(Tracer.Core sl.Sched.core)
                     ~name:"migration"
                     ~ts:(snd sl.Sched.header)
                     ~args:
                       [
                         ("shard", string_of_int sl.Sched.shard);
                         ("seq", string_of_int sl.Sched.seq);
                         ("from", string_of_int p.Sched.core);
                       ]
                 | _ -> ());
                 Some sl)
               None per_shard))
        slices;
      Metrics.Counter.add (Metrics.counter m "service_migrations") !migs);
    (* Physical view: per-core ack instants on the Core tracks. Slice
       headers are scheduler framing, not served responses — they get
       their own instant name and stay out of the served count. *)
    Array.iteri
      (fun core core_acks ->
        let labels = [ ("core", string_of_int core) ] in
        Metrics.Counter.add
          (Metrics.counter ~labels m "service_acked")
          (List.length
             (List.filter
                (fun (w, _) -> not (Wire.is_slice_header w))
                core_acks));
        List.iteri
          (fun i (resp, cycle) ->
            (* the coordinator core's acks are 2PC outcomes; workers ack
               requests and txn item/abort responses *)
            let name =
              if Wire.is_slice_header resp then "slice"
              else if core >= workers then
                match Wire.decode_response resp with
                | Wire.Committed, _ -> "txn_commit"
                | Wire.Aborted, _ -> "txn_abort"
                | _ -> "ack"
              else "ack"
            in
            Tracer.instant tr
              ~track:(Tracer.Core core)
              ~name ~ts:cycle
              ~args:
                [
                  ("request", string_of_int i); ("response", string_of_int resp);
                ])
          core_acks)
      outcome.acks;
    (* Logical view: per-shard streams (identical to the physical ones
       for a pinned store, reassembled from the slice headers for a
       scheduled one), where replay metadata lines up index-for-index.
       Latency histograms and request-lifecycle spans live here so a
       shard's numbers mean the same thing at any core count. *)
    let logical, _demux_errs = Sla.normalize ~kv:t.kv ~word:fst outcome.acks in
    (* Protocol replay gives each expected response an op kind and
       owning transaction; a run that passed [check] acked a prefix of
       exactly that stream, so index i of a stream's acks classifies by
       index i of its replayed metadata. *)
    let meta = Sla.response_meta (Sla.replay t.kv) in
    let meta_of stream i =
      if stream < Array.length meta && i < Array.length meta.(stream) then
        meta.(stream).(i)
      else { Sla.kind = "unknown"; tid = -1; key = -1 }
    in
    let tenant_label md =
      match t.workload with
      | None -> []
      | Some tw ->
        [
          ( "tenant",
            string_of_int
              (Sla.tenant_of ~tenants:tw.Client.tenants ~space:tw.Client.space
                 ~txn_tenant:tw.Client.txn_tenant md) );
        ]
    in
    Array.iteri
      (fun stream stream_acks ->
        let intervals = Sla.request_intervals ~loop stream_acks in
        (* Latency histograms split by op kind (and tenant, when the
           store is multi-tenant): txn tail latency must not hide
           inside (or inflate) the point-op distribution, and one
           tenant's tail must not hide inside another's. *)
        List.iteri
          (fun i (_, _, lat) ->
            let md = meta_of stream i in
            let h =
              Metrics.log2_histogram m "service_latency_cycles"
                ~labels:(("op", md.Sla.kind) :: tenant_label md)
                ~buckets:24
            in
            Metrics.Histogram.observe h lat;
            match tenant_label md with
            | [] -> ()
            | labels ->
              Metrics.Counter.add
                (Metrics.counter ~labels m "service_tenant_served")
                1)
          intervals;
        (* Request-lifecycle spans, one per served request on the
           shard's [Request] track: admission -> batch enqueue -> shard
           execution -> proxy commit -> ack. Span begin is clamped into
           [prev ack, ack] so the track stays monotone under open-loop
           queueing; the nominal arrival rides along as an arg. The
           coordinator's spans are the 2PC outcome windows, linked to
           the shard-side item spans by the tid arg. *)
        if Tracer.enabled tr then begin
          let prev_ack = ref 0 in
          List.iteri
            (fun i ((start, ack, _), (resp, _)) ->
              let md = meta_of stream i in
              let b_ts = min ack (max start !prev_ack) in
              let tid_args =
                if md.Sla.tid >= 0 then
                  [ ("tid", string_of_int md.Sla.tid) ]
                else []
              in
              let tid_args = tid_args @ tenant_label md in
              let track = Tracer.Request stream in
              Tracer.begin_span tr ~track ~name:md.Sla.kind ~ts:b_ts
                ~args:
                  (( "request", string_of_int i )
                   :: ("arrival", string_of_int start)
                   :: tid_args);
              Tracer.instant tr ~track ~name:"admitted" ~ts:b_ts ~args:tid_args;
              Tracer.instant tr ~track ~name:"enqueued" ~ts:b_ts
                ~args:
                  (("batch", string_of_int (i / t.cfg.batch)) :: tid_args);
              if stream >= shards then begin
                (* coordinator: the span brackets prepare -> decision *)
                Tracer.instant tr ~track ~name:"prepare" ~ts:b_ts ~args:tid_args;
                Tracer.instant tr ~track ~name:"decision" ~ts:ack
                  ~args:
                    (( "committed",
                       match Wire.decode_response resp with
                       | Wire.Committed, _ -> "true"
                       | _ -> "false" )
                     :: tid_args)
              end;
              Tracer.instant tr ~track ~name:"proxy_commit" ~ts:ack
                ~args:tid_args;
              Tracer.end_span tr ~track ~ts:ack;
              prev_ack := ack)
            (List.combine intervals stream_acks)
        end)
      logical
  end

let run ?(obs = Obs.null) ?(crash_at = []) t =
  let cfg = t.cfg in
  if cfg.mode = Arch.Persist.Volatile && crash_at <> [] then
    invalid_arg "Server.run: a volatile store cannot recover from a crash";
  let threads = Kvstore.thread_specs t.kv in
  let cores = t.kv.Kvstore.cores in
  let threshold = cfg.options.Comp.Options.threshold in
  let seen = Array.make cores 0 in
  let acks = Array.make cores [] in  (* reversed accumulation *)
  let images = ref [] in
  let recoveries = ref 0 in
  let blocks_total = ref 0 in
  let replayed_total = ref 0 in
  let tail_total = ref 0 in
  let rec_cycles = ref 0 in
  let downtime = ref [] in  (* reversed *)
  let base = ref 0 in
  Tracer.set_origin obs.Obs.tracer 0;
  let absorb per_core =
    Array.iteri
      (fun s entries ->
        let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
        let fresh = drop seen.(s) entries in
        List.iter (fun (v, c) -> acks.(s) <- (v, c + !base) :: acks.(s)) fresh;
        seen.(s) <- seen.(s) + List.length fresh)
      per_core
  in
  let rec go session = function
    | [] -> (
      match Executor.run session with
      | Executor.Finished r ->
        absorb r.Executor.acks;
        r
      | Executor.Crashed _ -> assert false)
    | at :: rest -> (
      match Executor.run ~crash_at_instr:at session with
      | Executor.Finished r ->
        (* the service drained before the crash point fired *)
        absorb r.Executor.acks;
        r
      | Executor.Crashed { image; at_cycle; _ } ->
        absorb image.Arch.Persist.acked;
        images := image :: !images;
        incr recoveries;
        let per_core_blocks =
          Runtime.Recovery.apply_recovery_blocks_per_core
            ~jobs:cfg.recovery_jobs t.compiled image
        in
        let blocks = Array.fold_left ( + ) 0 per_core_blocks in
        blocks_total := !blocks_total + blocks;
        (* the durable journal tail each core re-serves on restart:
           everything past its checkpoint cursor *)
        let tails =
          Array.mapi
            (fun c acked ->
              List.length acked - image.Arch.Persist.acked_base.(c))
            image.Arch.Persist.acked
        in
        replayed_total :=
          !replayed_total
          + Array.fold_left ( + ) 0 image.Arch.Persist.replayed;
        tail_total := !tail_total + Array.fold_left ( + ) 0 tails;
        let penalty =
          recovery_penalty cfg.config ~blocks:per_core_blocks ~tails
            ~replayed:image.Arch.Persist.replayed
        in
        rec_cycles := !rec_cycles + penalty;
        let down_from = !base + at_cycle in
        base := !base + at_cycle + penalty;
        downtime := (down_from, !base, blocks) :: !downtime;
        (* Resumed segments restart their thread clocks at zero; shift
           the tracer's origin to the absolute restart cycle (or past
           the last recorded span, whichever is later) so the stitched
           trace stays monotone. Trace-only: ack cycles use [base]. *)
        Tracer.set_origin obs.Obs.tracer
          (max !base (Tracer.max_ts obs.Obs.tracer));
        let session =
          Executor.resume ~config:cfg.config ~mode:cfg.mode ~journal_io:true
            ~recovery_jobs:cfg.recovery_jobs ~obs
            ~check_threshold:threshold ~compiled:t.compiled ~image ~threads ()
        in
        go session rest)
  in
  let session =
    Executor.start ~config:cfg.config ~mode:cfg.mode ~journal_io:true
      ~recovery_jobs:cfg.recovery_jobs ~obs ~check_threshold:threshold
      ~program:t.compiled.Comp.Compiled.program ~threads ()
  in
  let result = go session crash_at in
  let outcome =
    {
      acks = Array.map List.rev acks;
      final = result.Executor.outputs;
      images = List.rev !images;
      cycles = !base + result.Executor.cycles;
      recoveries = !recoveries;
      recovery_blocks = !blocks_total;
      recovery_replayed = !replayed_total;
      recovery_tail = !tail_total;
      recovery_cycles = !rec_cycles;
      downtime = List.rev !downtime;
      result;
    }
  in
  (* post-run instrumentation speaks absolute cycles already *)
  Tracer.set_origin obs.Obs.tracer 0;
  instrument obs t outcome;
  outcome

let check t outcome =
  Sla.check ~kv:t.kv ~images:outcome.images ~final:outcome.final

let views t outcome = Sla.normalize ~kv:t.kv ~word:fst outcome.acks

let steals t outcome =
  Kvstore.steal_total t.kv outcome.result.Executor.memory

let migrations t outcome =
  match t.kv.Kvstore.sched with
  | None -> []
  | Some _ ->
    Sched.migrations ~word:Fun.id ~shards:t.kv.Kvstore.shards
      (Array.sub outcome.final 0 (Kvstore.workers t.kv))

let stats t outcome =
  let txns =
    if Array.length t.kv.Kvstore.txns = 0 then (0, 0)
    else Sla.txn_outcomes t.kv
  in
  (* per-shard logical streams: slice headers are framing, not served
     requests, so a scheduled store's throughput and latency count the
     same population as the pinned store's *)
  let acks, _ = views t outcome in
  Sla.stats ~txns ~loop:t.cfg.client.Client.loop ~acks
    ~cycles:outcome.cycles ~rejected:t.rejected ~recoveries:outcome.recoveries
    ~recovery_cycles:outcome.recovery_cycles ()

let tenant_stats t outcome =
  match t.workload with
  | None -> [||]
  | Some tw ->
    let logical, _ = views t outcome in
    let meta = Sla.response_meta (Sla.replay t.kv) in
    let loop = t.cfg.client.Client.loop in
    let served = Array.make tw.Client.tenants 0 in
    let lats = Array.make tw.Client.tenants [] in
    Array.iteri
      (fun stream stream_acks ->
        let intervals = Sla.request_intervals ~loop stream_acks in
        List.iteri
          (fun i (_, _, lat) ->
            let md =
              if stream < Array.length meta && i < Array.length meta.(stream)
              then meta.(stream).(i)
              else { Sla.kind = "unknown"; tid = -1; key = -1 }
            in
            let tn =
              Sla.tenant_of ~tenants:tw.Client.tenants ~space:tw.Client.space
                ~txn_tenant:tw.Client.txn_tenant md
            in
            served.(tn) <- served.(tn) + 1;
            lats.(tn) <- float_of_int lat :: lats.(tn))
          intervals)
      logical;
    Array.init tw.Client.tenants (fun tn ->
        ( served.(tn),
          if lats.(tn) = [] then 0.0
          else Capri_util.Stat.percentile 99.0 lats.(tn) ))
