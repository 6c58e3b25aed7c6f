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
      (* no effect: recovery runs on the calling domain (kept while the
         repository benchmark still sets it) *)
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
  let r =
    Runtime.Recovery.drive ~crash_at:[] compiled
      (Runtime.Recovery.machine ~config:cfg.config ~mode:cfg.mode
         ~journal_io:true ~threads:(Kvstore.thread_specs kv) compiled)
  in
  max 1 (r.Executor.cycles / 32)

(* Weighted fair-share admission: each tenant owns a slice of the
   in-flight depth proportional to its weight, counted per shard over
   the same service-time estimate. A noisy tenant exhausts its own slice
   and is rejected while its neighbors' slices stay open — rejection
   isolates tenants instead of the loudest one starving the gate. With
   several tenants every slice holds at least 1; a single tenant owns
   the whole depth, so depth 0 rejects every arrival. *)
let admit ~period ~depth ~svc ~space ~weights requests =
  let nt = Array.length weights in
  let total_w = max 1 (Array.fold_left ( + ) 0 weights) in
  let share t =
    if nt = 1 then depth else max 1 (depth * weights.(t) / total_w)
  in
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

let plan cfg =
  if cfg.shards < 1 then invalid_arg "Server.plan: shards must be positive";
  let workload =
    match cfg.tenants with
    | None -> None
    | Some tenants ->
      Some
        (Client.generate_tenants ~hot_txns:cfg.hot_txns cfg.client ~tenants
           ~shards:cfg.shards)
  in
  let base, key_space =
    match workload with
    | Some tw -> (tw.Client.base, tw.Client.key_space)
    | None ->
      ( Client.generate cfg.client ~shards:cfg.shards,
        cfg.client.Client.key_space )
  in
  (* admission control would have to drop whole transactions to stay
     protocol-consistent; with txns present it is disabled *)
  let requests, rejected_at =
    match (cfg.client.Client.loop, cfg.admit_depth) with
    | Client.Open { period }, Some depth
      when depth >= 0 && Array.length base.Client.txns = 0 ->
      let space, weights =
        match workload with
        | Some tw -> (tw.Client.space, tw.Client.weights)
        | None -> (key_space, [| 1 |])
      in
      admit ~period ~depth ~svc:(calibrate cfg) ~space ~weights
        base.Client.requests
    | _ -> (base.Client.requests, [])
  in
  let kv =
    Kvstore.build ~batch:cfg.batch ~txns:base.Client.txns ~key_space ~requests
      ?sched:cfg.sched ~preload:cfg.preload ()
  in
  let compiled = Comp.Pipeline.compile cfg.options kv.Kvstore.program in
  {
    cfg;
    kv;
    compiled;
    rejected = List.length rejected_at;
    rejected_at;
    workload;
  }

let check_cores cfg =
  Runtime.Layout.check_cores
    (Kvstore.cores_for ?sched:cfg.sched ~shards:cfg.shards
       ~txns:
         (cfg.client.Client.txns
         + if cfg.tenants = None then 0 else cfg.hot_txns)
       ())

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

let views t outcome = Sla.normalize ~kv:t.kv ~word:fst outcome.acks

type served = {
  start : int;
  ack : int;
  latency : int;
  response : int;
  meta : Sla.resp_meta;
  tenant : int;
}

(* Every served request of a run, derived once. Accounting runs over the
   logical per-shard views (identical to the physical streams for a
   pinned store, reassembled from the slice headers for a scheduled one)
   so a shard's numbers mean the same thing at any core count. Protocol
   replay gives each expected response an op kind and owning
   transaction; a run that passed [check] acked a prefix of exactly that
   stream, so index i of a stream's acks classifies by index i of its
   replayed metadata. *)
let derive t outcome protocol =
  let logical, _demux_errs = views t outcome in
  let meta = Sla.response_meta protocol in
  let unknown = { Sla.kind = "unknown"; tid = -1; key = -1 } in
  let tenant_of =
    match t.workload with
    | None -> fun _ -> 0
    | Some tw ->
      Sla.tenant_of ~tenants:tw.Client.tenants ~space:tw.Client.space
        ~txn_tenant:tw.Client.txn_tenant
  in
  let loop = t.cfg.client.Client.loop in
  Array.mapi
    (fun stream stream_acks ->
      let known = if stream < Array.length meta then meta.(stream) else [||] in
      List.mapi
        (fun i ((start, ack, latency), (response, _)) ->
          let meta = if i < Array.length known then known.(i) else unknown in
          { start; ack; latency; response; meta; tenant = tenant_of meta })
        (List.combine (Sla.request_intervals ~loop stream_acks) stream_acks))
    logical

let served t outcome = derive t outcome (Sla.replay t.kv)

let instrument obs t outcome =
  if Obs.enabled obs then begin
    let m = obs.Obs.metrics in
    let shards = t.kv.Kvstore.shards in
    let workers = Kvstore.workers t.kv in
    let protocol = Sla.replay t.kv in
    Metrics.Counter.add
      (Metrics.counter m "service_rejected")
      t.rejected;
    Metrics.Counter.add (Metrics.counter m "service_recoveries")
      outcome.recoveries;
    if Array.length t.kv.Kvstore.txns > 0 then begin
      let commits, aborts = Sla.txn_outcomes protocol in
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
                     ~ts:(snd sl.Sched.header);
                   Tracer.int_arg tr "shard" sl.Sched.shard;
                   Tracer.int_arg tr "seq" sl.Sched.seq;
                   Tracer.int_arg tr "from" p.Sched.core
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
        let track = Tracer.Core core in
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
            Tracer.instant tr ~track ~name ~ts:cycle;
            Tracer.int_arg tr "request" i;
            Tracer.int_arg tr "response" resp)
          core_acks)
      outcome.acks;
    (* a request's trace arguments: its txn id, and its tenant when the
       store is multi-tenant *)
    let multi_tenant = Option.is_some t.workload in
    let tid_args r =
      if r.meta.Sla.tid >= 0 then Tracer.int_arg tr "tid" r.meta.Sla.tid;
      if multi_tenant then Tracer.int_arg tr "tenant" r.tenant
    in
    (* Latency histograms split by op kind (and tenant, when the store is
       multi-tenant): txn tail latency must not hide inside (or inflate)
       the point-op distribution, and one tenant's tail must not hide
       inside another's. A request's cells, its latency histogram and
       its tenant's served counter, are looked up once per (op kind,
       tenant). *)
    let cells = Hashtbl.create 16 in
    let cells_of r =
      let key = (r.meta.Sla.kind, r.tenant) in
      match Hashtbl.find cells key with
      | c -> c
      | exception Not_found ->
        let tenant =
          if multi_tenant then [ ("tenant", string_of_int r.tenant) ] else []
        in
        let c =
          ( Metrics.log2_histogram m "service_latency_cycles"
              ~labels:(("op", r.meta.Sla.kind) :: tenant) ~buckets:24,
            if multi_tenant then
              Some (Metrics.counter ~labels:tenant m "service_tenant_served")
            else None )
        in
        Hashtbl.add cells key c;
        c
    in
    Array.iteri
      (fun stream reqs ->
        List.iter
          (fun r ->
            let latency, served = cells_of r in
            Metrics.Histogram.observe latency r.latency;
            Option.iter Metrics.Counter.inc served)
          reqs;
        (* Request-lifecycle spans, one per served request on the
           shard's [Request] track: admission -> batch enqueue -> shard
           execution -> proxy commit -> ack. Span begin is clamped into
           [prev ack, ack] so the track stays monotone under open-loop
           queueing; the nominal arrival rides along as an arg. The
           coordinator's spans are the 2PC outcome windows, linked to
           the shard-side item spans by the tid arg. *)
        if Tracer.enabled tr then begin
          let track = Tracer.Request stream in
          let prev_ack = ref 0 in
          List.iteri
            (fun i r ->
              let ack = r.ack in
              let b_ts = min ack (max r.start !prev_ack) in
              Tracer.begin_span tr ~track ~name:r.meta.Sla.kind ~ts:b_ts;
              Tracer.int_arg tr "request" i;
              Tracer.int_arg tr "arrival" r.start;
              tid_args r;
              Tracer.instant tr ~track ~name:"admitted" ~ts:b_ts;
              tid_args r;
              Tracer.instant tr ~track ~name:"enqueued" ~ts:b_ts;
              Tracer.int_arg tr "batch" (i / t.cfg.batch);
              tid_args r;
              if stream >= shards then begin
                (* coordinator: the span brackets prepare -> decision *)
                Tracer.instant tr ~track ~name:"prepare" ~ts:b_ts;
                tid_args r;
                Tracer.instant tr ~track ~name:"decision" ~ts:ack
                  ~args:
                    (match Wire.decode_response r.response with
                     | Wire.Committed, _ -> [ ("committed", "true") ]
                     | _ -> [ ("committed", "false") ]);
                tid_args r
              end;
              Tracer.instant tr ~track ~name:"proxy_commit" ~ts:ack;
              tid_args r;
              Tracer.end_span tr ~track ~ts:ack;
              prev_ack := ack)
            reqs
        end)
      (derive t outcome protocol)
  end

let machine ?obs t =
  Runtime.Recovery.machine ~config:t.cfg.config ~mode:t.cfg.mode
    ~journal_io:true ?obs ~threads:(Kvstore.thread_specs t.kv) t.compiled

let run ?(obs = Obs.null) ?machine:held ?(crash_at = []) t =
  let cfg = t.cfg in
  if cfg.mode = Arch.Persist.Volatile && crash_at <> [] then
    invalid_arg "Server.run: a volatile store cannot recover from a crash";
  let cores = t.kv.Kvstore.cores in
  let seen = Array.make cores 0 in
  let acks = Array.make cores [] in  (* reversed accumulation *)
  let images = ref [] in
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
  let on_crash (crash : Executor.crash) per_core_blocks =
    let image = crash.Executor.image in
    absorb image.Arch.Persist.acked;
    images := image :: !images;
    let blocks = Array.fold_left ( + ) 0 per_core_blocks in
    blocks_total := !blocks_total + blocks;
    (* the durable journal tail each core re-serves on restart:
       everything past its checkpoint cursor *)
    let tails =
      Array.mapi
        (fun c acked -> List.length acked - image.Arch.Persist.acked_base.(c))
        image.Arch.Persist.acked
    in
    replayed_total :=
      !replayed_total + Array.fold_left ( + ) 0 image.Arch.Persist.replayed;
    tail_total := !tail_total + Array.fold_left ( + ) 0 tails;
    let penalty =
      recovery_penalty cfg.config ~blocks:per_core_blocks ~tails
        ~replayed:image.Arch.Persist.replayed
    in
    rec_cycles := !rec_cycles + penalty;
    let down_from = !base + crash.Executor.at_cycle in
    base := !base + crash.Executor.at_cycle + penalty;
    downtime := (down_from, !base, blocks) :: !downtime;
    (* Resumed segments restart their thread clocks at zero; shift the
       tracer's origin to the absolute restart cycle (or past the last
       recorded span, whichever is later) so the stitched trace stays
       monotone. Trace-only: ack cycles use [base]. *)
    Tracer.set_origin obs.Obs.tracer (max !base (Tracer.max_ts obs.Obs.tracer))
  in
  let result =
    Runtime.Recovery.drive ~obs ~on_crash ~crash_at t.compiled
      (match held with Some m -> m | None -> machine ~obs t)
  in
  (* acks of the last session, or of the only one when the service
     drained before any crash point fired *)
  absorb result.Executor.acks;
  let outcome =
    {
      acks = Array.map List.rev acks;
      final = result.Executor.outputs;
      images = List.rev !images;
      cycles = !base + result.Executor.cycles;
      recoveries = List.length !images;
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

(* Crash points are phrased in per-segment instruction counts, so they
   come from a crash-free reference run of the same plan. *)
let crash_schedule ~crashes t =
  if crashes <= 0 || t.cfg.mode = Arch.Persist.Volatile then []
  else
    let total = (run t).result.Executor.instrs in
    List.init crashes (fun _ -> max 1 (total / (crashes + 1)))

let check t outcome =
  Sla.check ~kv:t.kv ~images:outcome.images ~final:outcome.final

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
    else Sla.txn_outcomes (Sla.replay t.kv)
  in
  (* per-shard logical streams: slice headers are framing, not served
     requests, so a scheduled store's throughput and latency count the
     same population as the pinned store's *)
  let acks, _ = views t outcome in
  Sla.stats ~txns ~loop:t.cfg.client.Client.loop ~acks
    ~cycles:outcome.cycles ~rejected:t.rejected ~recoveries:outcome.recoveries
    ~recovery_cycles:outcome.recovery_cycles ()
