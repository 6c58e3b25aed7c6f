(* The four benchmark workloads.

   Each workload has a set-up (input generation, store build, store
   compile) and a repetition (the fixed simulated work, with every
   output checked). Both take an optional tracer: untraced they call
   Pipeline.compile and Server.plan as the library's own tools do; traced
   they open those facades into the layer calls underneath (the passes;
   Client.generate + Kvstore.build + the passes) and record a span around
   each call. Capri.run and Capri.run_volatile are always called as what
   they are, Executor.start + Executor.run. Every repetition starts from
   the same cold state: nothing is cached between repetitions except the
   set-up's inputs. *)

open Capri
module W = Capri_workloads
module Comp = Capri_compiler
module Svc = Capri_service
module Fuzz = Capri_fuzz
module Metrics = Capri_obs.Metrics
module Layout = Capri_runtime.Layout
module Stat = Capri_util.Stat

type rep = {
  attempted : int;  (* operations whose output was checked *)
  failed : int;
  problems : string list;  (* what failed, first few *)
  instrs : int;  (* simulated dynamic instructions executed *)
  sim : (string * string * float) list;
      (* deterministic results of the modeled machine: name, unit, value *)
  digest : int list;  (* every simulated counter, compared across reps *)
  counts : (string * float) list;  (* per-layer work counts *)
  laps : float list;
      (* host CPU time of each piece of the repetition, in order; the same
         pieces in every repetition *)
}

(* ------------------------------------------------------------------ *)
(* Shared accounting.                                                  *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable instrs : int;
  mutable digest : int list;  (* reversed *)
  counts : (string, float) Hashtbl.t;
  mutable laps : float list;  (* reversed *)
}

let acc () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    instrs = 0;
    digest = [];
    counts = Hashtbl.create 64;
    laps = [];
  }

let bump a name v =
  Hashtbl.replace a.counts name
    (v +. Option.value ~default:0. (Hashtbl.find_opt a.counts name))

let bumpi a name v = bump a name (float_of_int v)

let fail a ~ops msg =
  a.failed <- a.failed + ops;
  if List.length a.problems < 5 then a.problems <- a.problems @ [ msg ]

let note a v = a.digest <- v :: a.digest

(* [f ()] as one piece of the repetition: its host CPU time is a lap. *)
let piece a f =
  let c0 = Sys.time () in
  let r = f () in
  a.laps <- (Sys.time () -. c0) :: a.laps;
  r

let finish a sim =
  {
    attempted = a.attempted;
    failed = a.failed;
    problems = a.problems;
    instrs = a.instrs;
    sim;
    digest = List.rev a.digest;
    counts = List.of_seq (Hashtbl.to_seq a.counts);
    laps = List.rev a.laps;
  }

let persist_fields (p : Persist.stats) =
  [
    ("entries_created", p.Persist.entries_created);
    ("entries_merged", p.Persist.entries_merged);
    ("commits", p.Persist.commits);
    ("boundaries_elided", p.Persist.boundaries_elided);
    ("ckpt_flushes", p.Persist.ckpt_flushes);
    ("redo_writes", p.Persist.redo_writes);
    ("redo_skipped_invalid", p.Persist.redo_skipped_invalid);
    ("redo_skipped_stale", p.Persist.redo_skipped_stale);
    ("scan_invalidations", p.Persist.scan_invalidations);
    ("window_invalidations", p.Persist.window_invalidations);
    ("store_stall_cycles", p.Persist.store_stall_cycles);
    ("boundary_stall_cycles", p.Persist.boundary_stall_cycles);
    ("nvm_line_writes", p.Persist.nvm_line_writes);
    ("nvm_writes_wb", p.Persist.nvm_writes_wb);
    ("nvm_writes_redo", p.Persist.nvm_writes_redo);
    ("nvm_writes_slot", p.Persist.nvm_writes_slot);
    ("compactions", p.Persist.compactions);
    ("journal_truncated", p.Persist.journal_truncated);
  ]

let hier_fields (h : Hierarchy.stats) =
  [
    ("l1_hits", h.Hierarchy.l1_hits);
    ("l2_hits", h.Hierarchy.l2_hits);
    ("dram_hits", h.Hierarchy.dram_hits);
    ("nvm_accesses", h.Hierarchy.nvm_accesses);
    ("writebacks", h.Hierarchy.writebacks);
    ("invalidations", h.Hierarchy.invalidations);
  ]

let durable_writes (p : Persist.stats) =
  p.Persist.nvm_writes_wb + p.Persist.nvm_writes_redo + p.Persist.nvm_writes_slot

(* Executor, Persist and Hierarchy counters of one result into the
   per-layer counts. *)
let absorb_counters a (r : Executor.result) =
  List.iter (fun (f, v) -> bumpi a ("persist." ^ f) v) (persist_fields r.Executor.persist_stats);
  List.iter (fun (f, v) -> bumpi a ("hierarchy." ^ f) v) (hier_fields r.Executor.hier_stats);
  bumpi a "executor.boundaries" r.Executor.boundaries;
  bumpi a "executor.ckpt_stores" r.Executor.ckpt_stores;
  bumpi a "executor.stale_reads" r.Executor.stale_reads

(* A metrics-only observability bundle: the registry the traced run
   cross-checks the result records against. *)
let registry () =
  {
    Capri_obs.Obs.metrics = Metrics.create ();
    tracer = Capri_obs.Tracer.null;
    regions = Capri_obs.Profiler.null;
  }

(* Conservation between the two views of the model's counters: the
   result record's [persist_stats]/[hier_stats] against the registry's
   [persist_*]/[cache_*] cells. *)
let cross_check a ~what ~mode (obs : Capri_obs.Obs.t) (r : Executor.result) =
  let labels = [ ("mode", Persist.mode_name mode) ] in
  let cell name =
    Metrics.Counter.value (Metrics.counter ~labels obs.Capri_obs.Obs.metrics name)
  in
  let bad =
    List.filter_map
      (fun (prefix, fields) ->
        match
          List.find_opt (fun (f, v) -> cell (prefix ^ f) <> v) fields
        with
        | Some (f, v) ->
          Some (Printf.sprintf "%s%s: record %d, registry %d" prefix f v (cell (prefix ^ f)))
        | None -> None)
      [
        ("persist_", persist_fields r.Executor.persist_stats);
        ("cache_", hier_fields r.Executor.hier_stats);
      ]
  in
  bumpi a "registry_checks" 1;
  List.iter (fun m -> fail a ~ops:1 (Printf.sprintf "%s: %s" what m)) bad

(* ------------------------------------------------------------------ *)
(* Opened-up facades.                                                  *)
(* ------------------------------------------------------------------ *)

(* Pipeline.compile, pass by pass, in its order. Untraced it is the
   facade itself. *)
let compile tr ~item (options : Options.t) source =
  match tr with
  | None -> Pipeline.compile options source
  | Some _ ->
    let pass name f = Span.record tr ~layer:"pipeline" ~name ~item f in
    let program = pass "copy" (fun () -> Pipeline.copy_program source) in
    let unroll_report =
      if options.Options.unroll then
        pass "unroll" (fun () -> Comp.Unroll.run options program)
      else { Comp.Unroll.loops_seen = 0; loops_unrolled = 0; total_factor = 0 }
    in
    let regions = pass "form" (fun () -> Comp.Form.run options program) in
    let ckpt_report =
      if options.Options.ckpt then
        pass "ckpt" (fun () -> Comp.Ckpt.run options program regions)
      else { Comp.Ckpt.ckpts_inserted = 0 }
    in
    let recovery, prune_report =
      if options.Options.ckpt && options.Options.prune then
        pass "prune" (fun () -> Comp.Prune.run options program regions)
      else
        (Hashtbl.create 1, { Comp.Prune.ckpts_pruned = 0; recovery_blocks = 0 })
    in
    let licm_report =
      if options.Options.ckpt && options.Options.licm then
        pass "licm" (fun () -> Comp.Licm.run options program regions)
      else { Comp.Licm.ckpts_hoisted = 0; ckpts_deduped = 0 }
    in
    pass "validate" (fun () -> Validate.check_exn program);
    {
      Compiled.program;
      options;
      regions;
      recovery;
      unroll_report;
      ckpt_report;
      prune_report;
      licm_report;
    }

let absorb_compile a (c : Compiled.t) =
  bumpi a "pipeline.compiles" 1;
  bumpi a "pipeline.regions" (Region_map.region_count c.Compiled.regions);
  bumpi a "pipeline.loops_unrolled" c.Compiled.unroll_report.Comp.Unroll.loops_unrolled;
  bumpi a "pipeline.ckpts_inserted" c.Compiled.ckpt_report.Comp.Ckpt.ckpts_inserted;
  bumpi a "pipeline.ckpts_pruned" c.Compiled.prune_report.Comp.Prune.ckpts_pruned;
  bumpi a "pipeline.ckpts_hoisted" c.Compiled.licm_report.Comp.Licm.ckpts_hoisted;
  bumpi a "pipeline.recovery_blocks" c.Compiled.prune_report.Comp.Prune.recovery_blocks

(* The opened-up compile must be the facade's compile. *)
let same_compiled (x : Compiled.t) (y : Compiled.t) =
  let text (c : Compiled.t) = Format.asprintf "%a" Program.pp c.Compiled.program in
  text x = text y
  && x.Compiled.program.Program.data = y.Compiled.program.Program.data
  && x.Compiled.program.Program.blobs = y.Compiled.program.Program.blobs
  && Region_map.region_count x.Compiled.regions
     = Region_map.region_count y.Compiled.regions
  && Hashtbl.length x.Compiled.recovery = Hashtbl.length y.Compiled.recovery
  && x.Compiled.unroll_report = y.Compiled.unroll_report
  && x.Compiled.ckpt_report = y.Compiled.ckpt_report
  && x.Compiled.prune_report = y.Compiled.prune_report
  && x.Compiled.licm_report = y.Compiled.licm_report

(* Traced runs get an enabled registry to cross-check against. *)
let registry_for tr = if tr = None then None else Some (registry ())

(* Executor.start + Executor.run, i.e. Capri.run / Capri.run_volatile
   opened up. *)
let simulate tr a ~item ~config ~mode ?check_threshold ~threads program =
  let obs = registry_for tr in
  let session =
    Span.record tr ~layer:"executor" ~name:"start" ~item (fun () ->
        Executor.start ~config ~mode ?obs ?check_threshold ~program ~threads ())
  in
  bumpi a "executor.sessions" 1;
  match Span.record tr ~layer:"executor" ~name:"run" ~item (fun () -> Executor.run session) with
  | Executor.Finished r ->
    Option.iter (fun o -> cross_check a ~what:item ~mode o r) obs;
    r
  | Executor.Crashed _ -> failwith "crash-free run crashed"

(* Every counter of one crash-free run into the per-layer counts and the
   digest. *)
let absorb_run a (r : Executor.result) =
  a.instrs <- a.instrs + r.Executor.instrs;
  absorb_counters a r;
  bumpi a "executor.cycles" r.Executor.cycles;
  List.iter (note a)
    [ r.Executor.cycles; r.Executor.instrs; durable_writes r.Executor.persist_stats ]

(* ------------------------------------------------------------------ *)
(* fig8: the Figure 8 matrix.                                          *)
(* ------------------------------------------------------------------ *)

let thresholds = [ 32; 64; 128; 256; 512; 1024 ]
let headline = 256

(* The four non-empty accumulative configurations of Figure 9; the
   figure keeps the best per kernel and threshold. *)
let candidates threshold =
  List.map
    (fun (label, o) -> (label, Options.with_threshold threshold o))
    (List.tl Options.fig9_configs)

let paper_overall = 1.051
let paper_suites = [ ("spec", 1.0); ("stamp", 1.124); ("splash3", 1.091) ]

(* The kernels are fixed programs: fig8 takes no input from the seed. *)
let fig8_setup tr ~seed:_ =
  Span.record tr ~layer:"suite" ~name:"all" (fun () ->
      W.Suite.all ~scale:W.Suite.bench_scale ())

let r0s (r : Executor.result) = Array.map (fun regs -> regs.(0)) r.Executor.final_regs

(* The same machine with a slower L2: a second volatile source run under
   it shifts the threads' interleaving. A kernel whose per-core r0 moves
   with it (a shared work queue hands tasks to whichever thread asks
   first) has a schedule-dependent split of r0 across cores. *)
let shifted =
  { Config.sim_default with Config.l2_hit = 2 * Config.sim_default.Config.l2_hit }

(* A Capri-mode run must leave the data segment exactly as the volatile
   run of the uncompiled source does, and every core's r0 too — or, when
   the split of r0 across cores depends on the schedule, their sum. *)
let same_outputs ~per_core (reference : Executor.result) (r : Executor.result) =
  Memory.equal ~from:Layout.heap_base reference.Executor.memory r.Executor.memory
  &&
  if per_core then r0s reference = r0s r
  else Array.fold_left ( + ) 0 (r0s reference) = Array.fold_left ( + ) 0 (r0s r)

let fig8_rep tr kernels =
  let a = acc () in
  let per_kernel =
    List.map
      (fun (k : W.Kernel.t) ->
        let name = k.W.Kernel.name in
        let threads = k.W.Kernel.threads in
        let volatile ~item ~config =
          simulate tr a ~item ~config ~mode:Persist.Volatile ~threads k.W.Kernel.program
        in
        let base, alt =
          piece a (fun () ->
              let base = volatile ~item:(name ^ "/volatile") ~config:Config.sim_default in
              (base, volatile ~item:(name ^ "/volatile-shifted") ~config:shifted))
        in
        let per_core = r0s alt = r0s base in
        absorb_run a base;
        absorb_run a alt;
        let row =
          List.map
            (fun threshold ->
              let best =
                piece a @@ fun () ->
                List.fold_left
                  (fun best (label, options) ->
                    let item = Printf.sprintf "%s@%d/%s" name threshold label in
                    let compiled = compile tr ~item options k.W.Kernel.program in
                    absorb_compile a compiled;
                    (* as the figure harness: the conflict fence is off
                       for timing comparisons against the paper *)
                    let config =
                      { (Config.with_threshold threshold Config.sim_default) with
                        Config.conflict_fence = false }
                    in
                    let r =
                      simulate tr a ~item ~config ~mode:Persist.Capri
                        ~check_threshold:threshold ~threads compiled.Compiled.program
                    in
                    a.attempted <- a.attempted + 1;
                    if not (same_outputs ~per_core base r) then
                      fail a ~ops:1 (item ^ ": outputs differ from the volatile source run");
                    absorb_run a r;
                    match best with
                    | Some (b : Executor.result) when b.Executor.cycles <= r.Executor.cycles -> best
                    | Some _ | None -> Some r)
                  None (candidates threshold)
                |> Option.get
              in
              (threshold, best))
            thresholds
        in
        (k, base, row))
      kernels
  in
  let normalized threshold (_, (base : Executor.result), row) =
    float_of_int (List.assoc threshold row).Executor.cycles
    /. float_of_int base.Executor.cycles
  in
  let gmean ?suite threshold =
    Stat.geomean
      (List.filter_map
         (fun ((k : W.Kernel.t), _, _ as m) ->
           match suite with
           | Some s when k.W.Kernel.suite <> s -> None
           | Some _ | None -> Some (normalized threshold m))
         per_kernel)
  in
  let overall = gmean headline in
  let writes, instrs =
    List.fold_left
      (fun (w, i) (_, _, row) ->
        let r = List.assoc headline row in
        (w + durable_writes r.Executor.persist_stats, i + r.Executor.instrs))
      (0, 0) per_kernel
  in
  finish a
    ([ ("overhead_gmean", "ratio", overall);
       ("fig8.paper_overhead_gmean", "ratio", paper_overall);
       ("fig8.paper_error_pct", "%", 100. *. (overall -. paper_overall) /. paper_overall) ]
    @ List.map
        (fun (s, suite) ->
          (Printf.sprintf "fig8.%s_gmean" s, "ratio", gmean ~suite headline))
        [ ("spec", W.Kernel.Spec); ("stamp", W.Kernel.Stamp); ("splash3", W.Kernel.Splash3) ]
    @ List.map
        (fun (s, v) -> (Printf.sprintf "fig8.paper_%s_gmean" s, "ratio", v))
        paper_suites
    @ List.map
        (fun t -> (Printf.sprintf "fig8.gmean_t%d" t, "ratio", gmean t))
        thresholds
    @ [ ("nvm_writes_per_kinstr", "writes",
         1000. *. float_of_int writes /. float_of_int instrs) ])

let fig8_verify kernels =
  List.concat_map
    (fun (k : W.Kernel.t) ->
      List.concat_map
        (fun threshold ->
          List.filter_map
            (fun (label, options) ->
              let opened = compile (Some (Span.create ())) ~item:"" options k.W.Kernel.program in
              if same_compiled opened (Pipeline.compile options k.W.Kernel.program) then None
              else
                Some
                  (Printf.sprintf "%s@%d/%s: pass-by-pass compile differs from Pipeline.compile"
                     k.W.Kernel.name threshold label))
            (candidates threshold))
        thresholds)
    kernels

(* ------------------------------------------------------------------ *)
(* kv-hot and kv-large: the persistent KV store.                       *)
(* ------------------------------------------------------------------ *)

type kv = {
  stores : int;
      (* independent stores served per repetition; more than one where a
         single store's host cost varies too much from seed to seed *)
  cfg : seed:int -> Svc.Server.cfg;
  crashes : int -> int list;
      (* crash schedule from the crash-free run's instruction count *)
}

(* Ten stores of the service bench's shape: 2 shards over 64 keys (fits
   the modeled L1), 200 requests per shard, mix A, zipf 0.99, closed
   loop, 4 cross-shard 2PC transactions; two crashes at 1/3 and 2/3 of
   the crash-free run, placed as bench/service.exe places them. A 2PC
   participant spins until the transaction's last vote arrives, and the
   seed decides where the markers sit, so one store's work swings with
   the seed; ten of them average that out. *)
let kv_hot =
  {
    stores = 10;
    cfg =
      (fun ~seed ->
        {
          Svc.Server.default_cfg with
          Svc.Server.shards = 2;
          client =
            {
              Svc.Client.default with
              Svc.Client.mix = Svc.Client.A;
              key_space = 64;
              ops_per_shard = 200;
              skew = 0.99;
              loop = Svc.Client.Closed;
              seed;
              txns = 4;
            };
          mode = Persist.Capri;
          recovery_jobs = 1;
        });
    crashes = (fun total -> List.init 2 (fun _ -> max 1 (total / 3)));
  }

(* One store of 2 shards, each bulk-loaded with 100 000 committed pairs
   (values drawn from the seed), 2 000 requests per shard, mix B, zipf
   0.99, closed loop, no transactions, journal compaction every 32
   commits, one crash at 90% of the crash-free run. *)
let kv_large =
  let keys = 100_000 in
  {
    stores = 1;
    cfg =
      (fun ~seed ->
        let rng = Capri_util.Rng.create (seed + 7919) in
        let preload =
          Array.init 2 (fun _ ->
              Array.init keys (fun i ->
                  (i + 1, Capri_util.Rng.int rng Svc.Wire.payload_limit)))
        in
        {
          Svc.Server.default_cfg with
          Svc.Server.shards = 2;
          client =
            {
              Svc.Client.default with
              Svc.Client.mix = Svc.Client.B;
              key_space = keys;
              ops_per_shard = 2000;
              skew = 0.99;
              loop = Svc.Client.Closed;
              seed;
              txns = 0;
            };
          mode = Persist.Capri;
          config = { Config.sim_default with Config.compact_interval = 32 };
          recovery_jobs = 1;
          preload;
        });
    crashes = (fun total -> [ max 1 (total * 9 / 10) ]);
  }

(* Store [i] of workload seed [seed]; distinct seeds never share a
   store. *)
let store_cfgs spec ~seed =
  List.init spec.stores (fun i -> spec.cfg ~seed:((seed * spec.stores) + i))

type store = {
  plan : Svc.Server.t;
  expected : int;  (* responses the protocol predicts for one run *)
}

type kv_state = { spec : kv; stores : store list }

(* Server.plan opened up: request generation, store build, compile. *)
let plan_opened tr (cfg : Svc.Server.cfg) =
  let w =
    Span.record tr ~layer:"client" ~name:"generate" (fun () ->
        Svc.Client.generate cfg.Svc.Server.client ~shards:cfg.Svc.Server.shards)
  in
  let kv =
    Span.record tr ~layer:"kvstore" ~name:"build" (fun () ->
        Svc.Kvstore.build ~batch:cfg.Svc.Server.batch ~txns:w.Svc.Client.txns
          ~key_space:cfg.Svc.Server.client.Svc.Client.key_space
          ~requests:w.Svc.Client.requests ?sched:cfg.Svc.Server.sched
          ~preload:cfg.Svc.Server.preload ())
  in
  let compiled = compile tr ~item:"store" cfg.Svc.Server.options kv.Svc.Kvstore.program in
  { Svc.Server.cfg; kv; compiled; rejected = 0; rejected_at = []; workload = None }

let kv_setup spec tr ~seed =
  let store cfg =
    let plan =
      match tr with None -> Svc.Server.plan cfg | Some _ -> plan_opened tr cfg
    in
    let expected =
      Span.record tr ~layer:"sla" ~name:"replay" (fun () ->
          Array.fold_left
            (fun n s -> n + Array.length s)
            0
            (Svc.Sla.expected_streams (Svc.Sla.replay plan.Svc.Server.kv)))
    in
    { plan; expected }
  in
  { spec; stores = List.map store (store_cfgs spec ~seed) }

let acked (o : Svc.Server.outcome) =
  Array.fold_left (fun n l -> n + List.length l) 0 o.Svc.Server.acks

(* One store: a crash-free run, then the crash schedule derived from it;
   both checked by the oracle. Returns the crash-free run's result and
   the crashing run's outcome. *)
let serve_store tr a spec i { plan = t; expected } =
  let serve ~item ?crash_at () =
    let obs = registry_for tr in
    let o =
      Span.record tr ~layer:"server" ~name:"run" ~item (fun () ->
          Svc.Server.run ?obs ?crash_at t)
    in
    Option.iter
      (fun obs ->
        cross_check a ~what:item ~mode:t.Svc.Server.cfg.Svc.Server.mode obs
          o.Svc.Server.result)
      obs;
    bumpi a "server.segments" (1 + o.Svc.Server.recoveries);
    bumpi a "executor.sessions" (1 + o.Svc.Server.recoveries);
    (* every run is checked by the serializability + durability oracle;
       un-acked and refused requests are failures too *)
    a.attempted <- a.attempted + expected;
    (match
       Span.record tr ~layer:"sla" ~name:"check" ~item (fun () -> Svc.Server.check t o)
     with
    | Ok () ->
      let missing = expected - acked o + t.Svc.Server.rejected in
      if missing > 0 then
        fail a ~ops:missing (Printf.sprintf "%s: %d requests not acked" item missing)
    | Error v ->
      fail a ~ops:expected
        (Format.asprintf "%s: oracle violated: %a" item Svc.Sla.pp_violation v));
    bumpi a "sla.images" (List.length o.Svc.Server.images);
    o
  in
  let reference = serve ~item:(Printf.sprintf "store %d crash-free" i) () in
  let ref_r = reference.Svc.Server.result in
  let schedule = spec.crashes ref_r.Executor.instrs in
  let o = serve ~item:(Printf.sprintf "store %d crashes" i) ~crash_at:schedule () in
  let r = o.Svc.Server.result in
  (* Server.run reports the last segment's executor result; the earlier
     segments each ran up to their crash point *)
  let crashed = List.filteri (fun n _ -> n < o.Svc.Server.recoveries) schedule in
  a.instrs <- a.instrs + ref_r.Executor.instrs + List.fold_left ( + ) r.Executor.instrs crashed;
  bumpi a "executor.cycles" (ref_r.Executor.cycles + o.Svc.Server.cycles);
  List.iter (absorb_counters a) [ ref_r; r ];
  bumpi a "recovery.crashes" o.Svc.Server.recoveries;
  bumpi a "recovery.blocks" o.Svc.Server.recovery_blocks;
  bumpi a "recovery.replayed" o.Svc.Server.recovery_replayed;
  bumpi a "recovery.journal_tail" o.Svc.Server.recovery_tail;
  bumpi a "recovery.cycles" o.Svc.Server.recovery_cycles;
  List.iter (note a)
    ([ ref_r.Executor.instrs; ref_r.Executor.cycles;
       durable_writes ref_r.Executor.persist_stats; acked reference;
       r.Executor.instrs; o.Svc.Server.cycles; o.Svc.Server.recoveries;
       o.Svc.Server.recovery_blocks; o.Svc.Server.recovery_replayed;
       o.Svc.Server.recovery_tail; o.Svc.Server.recovery_cycles; acked o ]
    @ schedule);
  (ref_r, o)

(* Service metrics pooled over the stores: Sla.stats over every store's
   logical streams, cycles and recoveries summed — for one store exactly
   Server.stats. *)
let kv_rep tr st =
  let a = acc () in
  let runs = List.mapi (fun i s -> piece a (fun () -> serve_store tr a st.spec i s)) st.stores in
  let views, loop =
    Span.record tr ~layer:"sla" ~name:"stats" (fun () ->
        ( Array.concat
            (List.map2
               (fun s (_, o) -> fst (Svc.Server.views s.plan o))
               st.stores runs),
          (List.hd st.stores).plan.Svc.Server.cfg.Svc.Server.client.Svc.Client.loop ))
  in
  let sum f = List.fold_left (fun n x -> n + f x) 0 in
  let outcomes = List.map snd runs in
  let s =
    Span.record tr ~layer:"sla" ~name:"stats" (fun () ->
        Svc.Sla.stats ~loop ~acks:views
          ~cycles:(sum (fun o -> o.Svc.Server.cycles) outcomes)
          ~rejected:(sum (fun s -> s.plan.Svc.Server.rejected) st.stores)
          ~recoveries:(sum (fun o -> o.Svc.Server.recoveries) outcomes)
          ~recovery_cycles:(sum (fun o -> o.Svc.Server.recovery_cycles) outcomes)
          ())
  in
  let samples =
    Array.fold_left
      (fun n v -> n + List.length (Svc.Sla.request_latencies ~loop v))
      0 views
  in
  note a samples;
  let refs = List.map fst runs in
  finish a
    [
      ( "nvm_writes_per_kinstr", "writes",
        1000. *. float_of_int (sum (fun r -> durable_writes r.Executor.persist_stats) refs)
        /. float_of_int (sum (fun r -> r.Executor.instrs) refs) );
      ("tput_ops_per_kcyc", "ops/kcycle", s.Svc.Sla.throughput);
      ("p50_cyc", "cycles", s.Svc.Sla.p50);
      ("p99_cyc", "cycles", s.Svc.Sla.p99);
      ("latency_samples", "count", float_of_int samples);
      ("avail_pct", "%", 100. *. s.Svc.Sla.availability);
      ("recovery_cyc", "cycles", s.Svc.Sla.mean_recovery);
    ]

let kv_verify spec ~seed =
  List.concat_map
    (fun cfg ->
      let facade = Svc.Server.plan cfg in
      let opened = plan_opened (Some (Span.create ())) cfg in
      let text (t : Svc.Server.t) =
        Format.asprintf "%a" Program.pp t.Svc.Server.kv.Svc.Kvstore.program
      in
      if
        text facade = text opened
        && same_compiled facade.Svc.Server.compiled opened.Svc.Server.compiled
        && same_compiled opened.Svc.Server.compiled
             (Pipeline.compile cfg.Svc.Server.options
                opened.Svc.Server.kv.Svc.Kvstore.program)
      then []
      else [ "opened-up Server.plan differs from Server.plan / Pipeline.compile" ])
    (store_cfgs spec ~seed)

let kv_setup_counts a st =
  List.iter
    (fun { plan; _ } ->
      let kv = plan.Svc.Server.kv in
      bumpi a "client.requests"
        (Array.fold_left (fun n r -> n + Array.length r) 0 kv.Svc.Kvstore.requests);
      bumpi a "kvstore.preload_keys"
        (Array.fold_left (fun n p -> n + Array.length p) 0 kv.Svc.Kvstore.preload);
      bumpi a "kvstore.static_instrs" (Program.instr_count kv.Svc.Kvstore.program);
      absorb_compile a plan.Svc.Server.compiled)
    st.stores

(* ------------------------------------------------------------------ *)
(* crash-fuzz: fixed-budget kernel and service campaigns.              *)
(* ------------------------------------------------------------------ *)

type fuzz = { kernel : Fuzz.Campaign.cfg; service : Fuzz.Service_fuzz.cfg }

(* Fixed-seed campaigns with fixed budgets: the workload seed does not
   enter (a campaign's cost varies too much from seed to seed for two
   seeds' host times to be comparable). *)
let fuzz_cfgs ~seed ~kernel_budget ~service_budget =
  {
    kernel =
      { Fuzz.Campaign.default_cfg with
        Fuzz.Campaign.seed; budget = kernel_budget; jobs = 1 };
    service =
      { Fuzz.Service_fuzz.default_cfg with
        Fuzz.Service_fuzz.seed; budget = service_budget; jobs = 1;
        min_txns = 0; max_txns = 2 };
  }

(* The campaigns draw their inputs inside each trial, so there is no
   input to prepare; the set-up is one warm-up trial of each campaign at
   another seed, so lazily built state is not charged to the first
   timed repetition. *)
let fuzz_setup ~kernel_budget ~service_budget tr ~seed:_ =
  let warm = fuzz_cfgs ~seed:1_000_003 ~kernel_budget ~service_budget in
  let trial item f = ignore (Span.record tr ~layer:"fuzz" ~name:"trial" ~item f) in
  trial "warm-up kernel trial" (fun () -> Fuzz.Campaign.run_trial warm.kernel 0);
  trial "warm-up service trial" (fun () -> Fuzz.Service_fuzz.run_trial warm.service 0);
  fuzz_cfgs ~seed:0 ~kernel_budget ~service_budget

(* Campaign.run and Service_fuzz.run at jobs 1, opened up: trials in
   order until the budget of oracle executions is spent, each trial a
   piece of the repetition and, traced, a span. [fuzz_verify] holds the
   loop to the facades. *)
let fuzz_rep tr cfgs =
  let module C = Fuzz.Campaign in
  let module S = Fuzz.Service_fuzz in
  let a = acc () in
  let failed what repros = List.iter (fun m -> fail a ~ops:1 (what ^ ": " ^ m)) repros in
  let until ~budget ~checks what run =
    let rec go k spent acc =
      let t =
        piece a (fun () ->
            Span.record tr ~layer:"fuzz" ~name:"trial"
              ~item:(Printf.sprintf "%s trial %d" what k) (fun () -> run k))
      in
      let spent = spent + checks t in
      if spent >= budget then List.rev (t :: acc) else go (k + 1) spent (t :: acc)
    in
    go 0 0 []
  in
  let ks =
    until ~budget:cfgs.kernel.C.budget
      ~checks:(fun t -> t.C.t_crash_checks + t.C.t_diff_checks)
      "kernel" (C.run_trial cfgs.kernel)
  in
  let ss =
    until ~budget:cfgs.service.S.budget ~checks:(fun t -> t.S.t_checks)
      "service" (S.run_trial cfgs.service)
  in
  List.iter
    (fun t -> failed "kernel campaign" (List.map (fun (f : C.failure) -> f.C.repro) t.C.t_failures))
    ks;
  List.iter
    (fun t -> failed "service campaign" (List.map (fun (f : S.failure) -> f.S.repro) t.S.t_failures))
    ss;
  let sum f = List.fold_left (fun n t -> n + f t) 0 in
  let totals =
    [ List.length ks; sum (fun t -> t.C.t_schedules) ks;
      sum (fun t -> t.C.t_crash_checks) ks; sum (fun t -> t.C.t_diff_checks) ks;
      List.length ss; sum (fun t -> t.S.t_schedules) ss; sum (fun t -> t.S.t_checks) ss ]
  in
  List.iter (note a) totals;
  (match totals with
  | [ kt; ks; kc; kd; st; ss; sc ] ->
    a.attempted <- kc + kd + sc;
    bumpi a "fuzz.trials" (kt + st);
    bumpi a "fuzz.schedules" (ks + ss);
    bumpi a "fuzz.checks" (kc + kd + sc)
  | _ -> assert false);
  bumpi a "fuzz.failures" a.failed;
  finish a []

(* The facades must report what the opened-up loop counts. *)
let fuzz_verify cfgs =
  let module C = Fuzz.Campaign in
  let module S = Fuzz.Service_fuzz in
  let k = C.run cfgs.kernel in
  let s = S.run cfgs.service in
  let opened = fuzz_rep None cfgs in
  if
    opened.digest
    = [ k.C.trials; k.C.schedules; k.C.crash_checks; k.C.diff_checks;
        s.S.trials; s.S.schedules; s.S.checks ]
    && opened.failed = List.length k.C.failures + List.length s.S.failures
  then []
  else [ "trial-by-trial campaigns differ from Campaign.run / Service_fuzz.run" ]

(* ------------------------------------------------------------------ *)
(* The registry.                                                       *)
(* ------------------------------------------------------------------ *)

type t =
  | T : {
      name : string;
      setup : Span.t option -> seed:int -> 's;
      rep : Span.t option -> 's -> rep;
      setup_counts : acc -> 's -> unit;  (* per-layer counts of the set-up *)
      verify : seed:int -> 's -> string list;
          (* the opened-up facades equal the facades *)
    }
      -> t

let kv_workload name spec =
  T
    {
      name;
      setup = kv_setup spec;
      rep = kv_rep;
      setup_counts = kv_setup_counts;
      verify = (fun ~seed _ -> kv_verify spec ~seed);
    }

let all =
  [
    T
      {
        name = "fig8";
        setup = fig8_setup;
        rep = fig8_rep;
        setup_counts = (fun _ _ -> ());
        verify = (fun ~seed:_ kernels -> fig8_verify kernels);
      };
    kv_workload "kv-hot" kv_hot;
    kv_workload "kv-large" kv_large;
    T
      {
        name = "crash-fuzz";
        setup = fuzz_setup ~kernel_budget:200 ~service_budget:200;
        rep = fuzz_rep;
        setup_counts = (fun _ _ -> ());
        verify = (fun ~seed:_ cfgs -> fuzz_verify cfgs);
      };
  ]

let name (T w) = w.name
let find n = List.find_opt (fun w -> name w = n) all
