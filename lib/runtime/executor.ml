open Capri_ir
module Arch = Capri_arch
module Memory = Arch.Memory
module Hierarchy = Arch.Hierarchy
module Persist = Arch.Persist
module Config = Arch.Config
module Obs = Capri_obs.Obs
module Tracer = Capri_obs.Tracer
module Profiler = Capri_obs.Profiler

type thread_spec = { func : string; args : (Reg.t * int) list }

let main_thread (p : Program.t) = { func = p.Program.main; args = [] }

type engine = Interp | Compiled

(* The compiled tier is the default: the interpreter remains as the
   reference engine (the differential tests hold the two to identical
   results). CAPRI_ENGINE=interp flips the default for a whole process,
   e.g. to bisect a suspected engine divergence without recompiling. *)
let default_engine =
  ref
    (match Sys.getenv_opt "CAPRI_ENGINE" with
     | Some "interp" -> Interp
     | Some _ | None -> Compiled)

let engine_name = function Interp -> "interp" | Compiled -> "compiled"

let engine_of_string = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | _ -> None

exception Livelock of { core : int; region : string; steps : int }

let () =
  Printexc.register_printer (function
    | Livelock { core; region; steps } ->
      Some
        (Printf.sprintf
           "Executor.run: core %d exceeded the step budget (%d steps) in \
            region %s (livelock?)"
           core steps region)
    | _ -> None)

(* The stack-pointer register index, hoisted out of the dispatch loop. *)
let sp_idx = Reg.to_int Reg.sp

type region_stats = {
  regions_executed : int;
  total_instrs : int;
  total_stores : int;
  max_stores_in_region : int;
}

type boundary_profile = {
  mutable instances : int;
  mutable p_instrs : int;
  mutable p_stores : int;
  mutable p_max_stores : int;
}

type result = {
  cycles : int;
  instrs : int;
  payload_instrs : int;
  stores : int;
  ckpt_stores : int;
  boundaries : int;
  region_stats : region_stats;
  profile : (int, boundary_profile) Hashtbl.t;
      (* per boundary id: dynamic instance counts (profile-guided
         region formation consumes this) *)
  outputs : int list array;
  acks : (int * int) list array;
      (* per thread: (output, cycle it became client-visible). Journaled
         runs stamp the back-end proxy commit of the carrying region;
         unjournaled runs stamp the Out's execution cycle. *)
  memory : Arch.Memory.t;
  final_regs : int array array;
  persist_stats : Arch.Persist.stats;
  hier_stats : Arch.Hierarchy.stats;
  stale_reads : int;
}

type crash = {
  image : Arch.Persist.image;
  at_instr : int;
  at_cycle : int;
  outputs_before : int list array;
}

type outcome = Finished of result | Crashed of crash

type thread = {
  core : int;
  regs : int array;
  mutable cur : Code.block;
  mutable cur_idx : int;  (* block index of [cur] *)
  mutable cfns : (thread -> int) array;
      (* compiled engine: the current block's closure array — one closure
         per instruction plus the terminator at index [length instrs];
         each returns its cycle cost. [[||]] under the interpreter. *)
  mutable index : int;
  mutable cycle : int;
  mutable steps : int;
      (* scheduler step attempts (conflict retries included) — the
         per-thread unit both engines charge the [max_steps] budget in *)
  mutable halted : bool;
  mutable outputs : int list;  (* reversed *)
  mutable out_cycles : (int * int) list;  (* (value, cycle), reversed *)
  (* dynamic region accounting *)
  mutable cur_region_instrs : int;
  mutable cur_region_stores : int;
  mutable cur_region_ckpts : int;
  mutable cur_region_stall : int;  (* store-stall cycles inside the region *)
  mutable cur_region_id : int;
  mutable in_region : bool;
  mutable region_seq : int;
      (* mirror of Persist's per-core open_seq: incremented on every
         boundary/halt flush, elided or not, so profiler records keyed
         (core, seq) join with Persist's commit reports *)
  mutable prof_id : int;
      (* region id of [prof_bp], [min_int] when the cache is cold: loop
         bodies close the same static region millions of times, so the
         per-close profile row is one compare away instead of a hash *)
  mutable prof_bp : boundary_profile;
}

(* Never mutated: threads point at it until their first region closes. *)
let dummy_bp = { instances = 0; p_instrs = 0; p_stores = 0; p_max_stores = 0 }

type session = {
  config : Config.t;
  journal_io : bool;
  recovery_jobs : int;
      (* domain-pool width for the per-core planning half of
         {!Persist.crash_recover}; the recovered image is byte-identical
         at any value (the repo's determinism contract) *)
  program : Program.t;
  code : Code.t;
      (* per-session resolved code: sessions over distinct programs (even
         ones sharing function and label names) are fully isolated, and
         concurrent sessions in different domains share nothing mutable *)
  memory : Memory.t;
  hier : Hierarchy.t;
  persist : Persist.t;
  fence_on : bool;  (* Persist.fence_active, hoisted out of the store path *)
  engine : engine;
  mutable cblocks : (thread -> int) array array;
      (* compiled engine: closure array per block index; [[||]] under the
         interpreter. Built once per session so the closures can capture
         session-constant facts (journaling, tracer enablement, fence). *)
  mutable fast_len : int array;
      (* per block index: number of closures (instrs + terminator) when
         the block is eligible for the fused loop, 0 otherwise *)
  threads : thread array;
  check_threshold : int option;
  mutable instr_count : int;
  mutable payload_count : int;
  mutable store_count : int;
  mutable ckpt_count : int;
  mutable boundary_count : int;
  mutable stale_reads : int;
  (* region_stats accumulators, mutated in place (one record per run,
     not one per closed region) *)
  mutable r_regions : int;
  mutable r_instrs : int;
  mutable r_stores : int;
  mutable r_max_stores : int;
  lcosts : int array;
      (* per memory level: 1 + shadowed hit latency — the load cost before
         any Redo_nowb indirect-read penalty, divisions done once *)
  scosts : int array;  (* per memory level: store miss cost *)
  redo_extra : bool;  (* mode = Redo_nowb: loads may owe extra latency *)
  mutable lval : int;
      (* value of the most recent {!do_load} — an out-parameter instead of
         a result tuple per load; sessions never share a domain with each
         other, threads within one never interleave mid-instruction *)
  profile : (int, boundary_profile) Hashtbl.t;
  obs : Obs.t;
}

let make_thread code core (spec : thread_spec) =
  let entry = Code.entry_index code spec.func in
  let regs = Array.make Reg.count 0 in
  regs.(sp_idx) <- Layout.stack_top ~core;
  List.iter (fun (r, v) -> regs.(Reg.to_int r) <- v) spec.args;
  {
    core;
    regs;
    cur = Code.block code entry;
    cur_idx = entry;
    cfns = [||];
    index = 0;
    cycle = 0;
    steps = 0;
    halted = false;
    outputs = [];
    out_cycles = [];
    cur_region_instrs = 0;
    cur_region_stores = 0;
    cur_region_ckpts = 0;
    cur_region_stall = 0;
    cur_region_id = -1;
    in_region = false;
    region_seq = 0;
    prof_id = min_int;
    prof_bp = dummy_bp;
  }

(* Hoist the per-access latency divisions out of the load/store paths:
   one table entry per {!Hierarchy.level}, computed once per session. *)
let mk_cost_tables (config : Config.t) =
  let lat = Hierarchy.latency config in
  let lcosts =
    Array.map
      (fun l -> 1 + (lat l / config.Config.load_shadow_div))
      [| Hierarchy.L1; Hierarchy.L2; Hierarchy.Dram; Hierarchy.Nvm |]
  in
  let scosts =
    [|
      0;
      lat Hierarchy.L2 / config.Config.store_miss_div;
      lat Hierarchy.Dram / config.Config.store_miss_div;
      lat Hierarchy.Nvm / config.Config.store_miss_div;
    |]
  in
  (lcosts, scosts)

let level_idx = function
  | Hierarchy.L1 -> 0
  | Hierarchy.L2 -> 1
  | Hierarchy.Dram -> 2
  | Hierarchy.Nvm -> 3

let load_data program memory =
  (* Blobs first, then data words: the sparse word list may patch over a
     bulk segment. Zero blob words are skipped — a half-empty open
     hash table stays as sparse in paged memory as its occupancy, and
     an untouched word is zero either way. *)
  List.iter
    (fun (base, words) ->
      Array.iteri
        (fun i v -> if v <> 0 then Memory.write memory (base + i) v)
        words)
    program.Program.blobs;
  List.iter (fun (addr, v) -> Memory.write memory addr v)
    program.Program.data

let entry_boundary_id program fname =
  let f = Program.find_func program fname in
  let b = Func.find f (Func.entry f) in
  match b.Block.instrs with
  | Instr.Boundary { id } :: _ -> Some id
  | _ :: _ | [] -> None

let start ?(config = Config.sim_default) ?(mode = Persist.Capri)
    ?(journal_io = false) ?(recovery_jobs = 1) ?(obs = Obs.null)
    ?check_threshold ?engine ~program ~threads () =
  let engine = match engine with Some e -> e | None -> !default_engine in
  let config = { config with Config.cores = max 1 (List.length threads) } in
  let memory = Memory.create () in
  load_data program memory;
  let persist = Persist.create ~obs config ~mode in
  let hier =
    Hierarchy.create ~obs ~labels:[ ("mode", Persist.mode_name mode) ] config
      memory
      ~on_nvm_writeback:(fun ~cycle ~line ~data ~version ->
        Persist.on_writeback persist ~cycle ~line ~data ~version)
  in
  let code = Code.build program in
  (* Seed NVM with the initial image: the data segment is durable before
     execution starts (the loader wrote it). Must bypass the writeback
     path — Redo_nowb drops dirty writebacks by design. *)
  Memory.iter_lines memory (fun l data ->
      Persist.install_line persist ~line:l ~data:(Array.copy data) ~version:0);
  let threads =
    Array.of_list (List.mapi (fun i spec -> make_thread code i spec) threads)
  in
  (* The loader also durably records each thread's initial context, so a
     crash inside the very first region restores the right arguments. *)
  Array.iteri
    (fun i th ->
      Persist.init_slots persist ~core:i ~slots:th.regs
        ~resume_boundary:(entry_boundary_id program th.cur.Code.fname)
        ~sp:th.regs.(sp_idx))
    threads;
  let lcosts, scosts = mk_cost_tables config in
  {
    config;
    journal_io;
    recovery_jobs;
    program;
    code;
    memory;
    hier;
    persist;
    fence_on = Persist.fence_active persist;
    engine;
    cblocks = [||];
    fast_len = [||];
    threads;
    check_threshold;
    instr_count = 0;
    payload_count = 0;
    store_count = 0;
    ckpt_count = 0;
    boundary_count = 0;
    stale_reads = 0;
    r_regions = 0;
    r_instrs = 0;
    r_stores = 0;
    r_max_stores = 0;
    lcosts;
    scosts;
    redo_extra = (mode = Persist.Redo_nowb);
    lval = 0;
    profile = Hashtbl.create 64;
    obs;
  }

let resume ?(config = Config.sim_default) ?(mode = Persist.Capri)
    ?(journal_io = false) ?(recovery_jobs = 1) ?(obs = Obs.null)
    ?check_threshold ?engine ~(compiled : Capri_compiler.Compiled.t)
    ~(image : Persist.image) ~threads () =
  let engine = match engine with Some e -> e | None -> !default_engine in
  let program = compiled.Capri_compiler.Compiled.program in
  let config = { config with Config.cores = max 1 (List.length threads) } in
  let memory = Memory.copy image.Persist.nvm in
  let persist = Persist.create ~obs config ~mode in
  let hier =
    Hierarchy.create ~obs ~labels:[ ("mode", Persist.mode_name mode) ] config
      memory
      ~on_nvm_writeback:(fun ~cycle ~line ~data ~version ->
        Persist.on_writeback persist ~cycle ~line ~data ~version)
  in
  (* NVM of the new engine = the recovered image (again bypassing the
     writeback path, which Redo_nowb discards). *)
  Memory.iter_lines memory (fun l data ->
      Persist.install_line persist ~line:l ~data:(Array.copy data) ~version:0);
  let code = Code.build program in
  let regions = compiled.Capri_compiler.Compiled.regions in
  let specs = Array.of_list threads in
  let threads =
    Array.of_list
      (List.mapi
         (fun i (spec : thread_spec) ->
           let th = make_thread code i spec in
           (match image.Persist.resume.(i) with
            | Persist.Done ->
              (* The halt path staged the whole register file with the
                 final region, so the slot array holds this finished
                 thread's exact final context. *)
              Array.blit image.Persist.slots.(i) 0 th.regs 0 Reg.count;
              th.halted <- true
            | Persist.Never_started -> ()
            | Persist.Resume { boundary; sp } ->
              let region = Capri_compiler.Region_map.find regions boundary in
              let head = region.Capri_compiler.Region_map.head in
              let fname = region.Capri_compiler.Region_map.func in
              Array.blit image.Persist.slots.(i) 0 th.regs 0 Reg.count;
              th.regs.(sp_idx) <- sp;
              let idx = Code.index_of code ~func:fname head in
              th.cur <- Code.block code idx;
              th.cur_idx <- idx;
              th.index <- 0);
           th)
         (Array.to_list specs))
  in
  (* Seed the fresh engine's durable per-core records from the image (or
     from scratch for threads that never reached their first boundary). *)
  Array.iteri
    (fun i th ->
      (match image.Persist.resume.(i) with
       | Persist.Never_started ->
         Persist.init_slots persist ~core:i ~slots:th.regs
           ~resume_boundary:(entry_boundary_id program specs.(i).func)
           ~sp:th.regs.(sp_idx)
       | Persist.Done ->
         Persist.seed_core persist ~core:i ~slots:image.Persist.slots.(i)
           ~resume:Persist.Done
       | Persist.Resume { boundary; sp } ->
         Persist.seed_core persist ~core:i ~slots:image.Persist.slots.(i)
           ~resume:(Persist.Resume { boundary; sp }));
      if journal_io then
        Persist.seed_journal persist ~core:i
          ~base:image.Persist.acked_base.(i)
          ~outs:image.Persist.journal.(i) ())
    threads;
  let lcosts, scosts = mk_cost_tables config in
  {
    config;
    journal_io;
    recovery_jobs;
    program;
    code;
    memory;
    hier;
    persist;
    fence_on = Persist.fence_active persist;
    engine;
    cblocks = [||];
    fast_len = [||];
    threads;
    check_threshold;
    instr_count = 0;
    payload_count = 0;
    store_count = 0;
    ckpt_count = 0;
    boundary_count = 0;
    stale_reads = 0;
    r_regions = 0;
    r_instrs = 0;
    r_stores = 0;
    r_max_stores = 0;
    lcosts;
    scosts;
    redo_extra = (mode = Persist.Redo_nowb);
    lval = 0;
    profile = Hashtbl.create 64;
    obs;
  }

(* ------------------------------------------------------------------ *)
(* Stepping.                                                           *)
(* ------------------------------------------------------------------ *)

let operand_value (th : thread) = function
  | Instr.Reg r -> th.regs.(Reg.to_int r)
  | Instr.Imm i -> i

(* Cross-core conflict fence: the store must wait (without executing)
   until the other core's conflicting region commits. The thread retries
   the same instruction after a short delay, letting other threads
   progress. *)
exception Retry_conflict

let conflict_retry_cycles = 24

let word_bit addr = 1 lsl (addr land (Config.line_words - 1))

let fence_store s (th : thread) addr =
  if
    s.fence_on
    && Persist.store_conflict s.persist ~core:th.core ~cycle:th.cycle
         ~line:(Memory.line_of_addr addr) ~mask:(word_bit addr)
  then raise Retry_conflict

let close_dyn_region s (th : thread) ~next_id =
  if th.in_region then begin
    (match s.check_threshold with
     | Some limit when th.cur_region_stores > limit ->
       failwith
         (Printf.sprintf
            "region store threshold violated: %d > %d (core %d)"
            th.cur_region_stores limit th.core)
     | Some _ | None -> ());
    s.r_regions <- s.r_regions + 1;
    s.r_instrs <- s.r_instrs + th.cur_region_instrs;
    s.r_stores <- s.r_stores + th.cur_region_stores;
    if th.cur_region_stores > s.r_max_stores then
      s.r_max_stores <- th.cur_region_stores;
    let bp =
      if th.prof_id = th.cur_region_id then th.prof_bp
      else begin
        let bp =
          match Hashtbl.find_opt s.profile th.cur_region_id with
          | Some bp -> bp
          | None ->
            let bp =
              { instances = 0; p_instrs = 0; p_stores = 0; p_max_stores = 0 }
            in
            Hashtbl.replace s.profile th.cur_region_id bp;
            bp
        in
        th.prof_id <- th.cur_region_id;
        th.prof_bp <- bp;
        bp
      end
    in
    bp.instances <- bp.instances + 1;
    bp.p_instrs <- bp.p_instrs + th.cur_region_instrs;
    bp.p_stores <- bp.p_stores + th.cur_region_stores;
    bp.p_max_stores <- max bp.p_max_stores th.cur_region_stores
  end;
  th.cur_region_instrs <- 0;
  th.cur_region_stores <- 0;
  th.cur_region_ckpts <- 0;
  th.cur_region_stall <- 0;
  th.cur_region_id <- next_id;
  th.in_region <- true

let region_name id = if id < 0 then "entry" else "b" ^ string_of_int id

(* Names the region timeline is written under in the tracer and read
   back by {!boundary_instrs} and {!render_timeline}: a region span's
   begin event carries the closed region's store count and the
   boundary's global instruction index as arguments. *)
let stall_span = "boundary-stall"
let halt_instant = "halt"
let crash_instant = "crash"
let stores_arg = "stores"
let instr_arg = "instr"

(* One architectural store: functional update, word-delta hand-off to the
   persist engine (which snapshots the line itself only when it creates a
   proxy entry — the merge path allocates nothing), cache timing. Returns
   the cycle cost. *)
let do_store s (th : thread) addr value =
  let line = Memory.line_of_addr addr in
  let old = Memory.read s.memory addr in
  Memory.write s.memory addr value;
  let version = Memory.line_version s.memory line in
  let level = Hierarchy.store s.hier ~core:th.core ~cycle:th.cycle ~addr in
  let miss_cost = Array.unsafe_get s.scosts (level_idx level) in
  let stall =
    Persist.on_store_word s.persist ~core:th.core ~cycle:th.cycle ~line
      ~mask:(word_bit addr)
      ~word:(addr land (Config.line_words - 1))
      ~value ~old ~version ~memory:s.memory
  in
  s.store_count <- s.store_count + 1;
  th.cur_region_stores <- th.cur_region_stores + 1;
  th.cur_region_stall <- th.cur_region_stall + stall;
  1 + miss_cost + stall

(* One architectural load; returns its cycle cost and leaves the loaded
   value in [s.lval] (a result tuple per load was measurable allocation).
   The common-mode cost is a table lookup — divisions and the Redo_nowb
   penalty probe are hoisted to session setup. *)
let do_load s (th : thread) addr =
  s.lval <- Memory.read s.memory addr;
  let level = Hierarchy.load s.hier ~core:th.core ~cycle:th.cycle ~addr in
  match level with
  | Hierarchy.L1 -> Array.unsafe_get s.lcosts 0
  | Hierarchy.L2 | Hierarchy.Dram | Hierarchy.Nvm ->
    (match level with
     | Hierarchy.Nvm ->
       (* Stale-read oracle: an NVM-level load must observe the latest
          data (Section 5.3); mismatches are counted (and would be real
          bugs in modes without prevention). *)
       let line = Memory.line_of_addr addr in
       let durable = Persist.nvm_line s.persist line in
       let current = Memory.line_snapshot s.memory line in
       if durable <> current then s.stale_reads <- s.stale_reads + 1
     | Hierarchy.L1 | Hierarchy.L2 | Hierarchy.Dram -> ());
    let cost = Array.unsafe_get s.lcosts (level_idx level) in
    if s.redo_extra then cost + Persist.load_extra_latency s.persist level
    else cost

let goto s (th : thread) idx =
  th.cur <- Code.block s.code idx;
  th.cur_idx <- idx;
  th.index <- 0

(* Region boundary and halt bookkeeping, shared verbatim by both engines
   (these are the cold paths — the compiled tier only specializes the
   dispatch around them). Neither touches [payload_count]; the callers
   account it. Both return the cycle cost. *)
let exec_boundary s (th : thread) ~id =
  s.boundary_count <- s.boundary_count + 1;
  (* Capture the closing region's costs before the reset; the profiler
     record goes out after Persist flushes so the boundary stall (sync
     modes) is attributed to the region it closes. *)
  let closing = th.in_region in
  let closing_id = th.cur_region_id in
  let stores = th.cur_region_stores in
  let ckpts = th.cur_region_ckpts in
  let store_stall = th.cur_region_stall in
  close_dyn_region s th ~next_id:id;
  let stall =
    Persist.on_boundary s.persist ~core:th.core ~cycle:th.cycle ~boundary:id
      ~sp:th.regs.(sp_idx)
  in
  let seq = th.region_seq in
  th.region_seq <- seq + 1;
  if closing && Profiler.enabled s.obs.Obs.regions then
    Profiler.on_region_close s.obs.Obs.regions ~core:th.core ~seq
      ~region:(region_name closing_id) ~stores ~ckpt_stores:ckpts
      ~stall_cycles:(store_stall + stall) ~cycle:th.cycle;
  let tr = s.obs.Obs.tracer in
  if Tracer.enabled tr then begin
    let track = Tracer.Core th.core in
    if closing then Tracer.end_span tr ~track ~ts:th.cycle;
    Tracer.begin_span tr ~track ~name:(region_name id) ~ts:th.cycle
      ~args:
        [
          (stores_arg, string_of_int stores);
          (instr_arg, string_of_int s.instr_count);
        ];
    if stall > 0 then begin
      Tracer.begin_span tr ~track ~name:stall_span ~ts:th.cycle;
      Tracer.end_span tr ~track ~ts:(th.cycle + stall)
    end
  end;
  1 + stall

let exec_halt s (th : thread) =
  let closing = th.in_region in
  let closing_id = th.cur_region_id in
  let stores = th.cur_region_stores in
  let ckpts = th.cur_region_ckpts in
  let store_stall = th.cur_region_stall in
  close_dyn_region s th ~next_id:(-1);
  th.in_region <- false;
  (* Stage the full architected register file with the final region:
     its commit makes the finished thread's context durable, so a crash
     after this core halts (while others still run) can restore the
     exact final registers instead of reporting a zeroed file. *)
  Array.iteri
    (fun slot value -> Persist.on_ckpt s.persist ~core:th.core ~slot ~value)
    th.regs;
  let stall = Persist.on_halt s.persist ~core:th.core ~cycle:th.cycle in
  let seq = th.region_seq in
  th.region_seq <- seq + 1;
  if closing && Profiler.enabled s.obs.Obs.regions then
    Profiler.on_region_close s.obs.Obs.regions ~core:th.core ~seq
      ~region:(region_name closing_id) ~stores
      ~ckpt_stores:(ckpts + Array.length th.regs)
      ~stall_cycles:(store_stall + stall) ~cycle:th.cycle;
  let tr = s.obs.Obs.tracer in
  if Tracer.enabled tr then begin
    let track = Tracer.Core th.core in
    if closing then Tracer.end_span tr ~track ~ts:th.cycle;
    Tracer.instant tr ~track ~name:halt_instant ~ts:th.cycle
  end;
  th.halted <- true;
  1 + stall

let exec_instr s (th : thread) (i : Instr.t) =
  s.payload_count <- s.payload_count + 1;
  match i with
  | Instr.Binop { op; dst; a; b } ->
    th.regs.(Reg.to_int dst) <-
      Instr.eval_binop op (operand_value th a) (operand_value th b);
    1
  | Instr.Mov { dst; src } ->
    th.regs.(Reg.to_int dst) <- operand_value th src;
    1
  | Instr.Load { dst; base; offset } ->
    let addr = th.regs.(Reg.to_int base) + offset in
    let cost = do_load s th addr in
    let value = s.lval in
    th.regs.(Reg.to_int dst) <- value;
    cost
  | Instr.Store { base; offset; src } ->
    let addr = th.regs.(Reg.to_int base) + offset in
    fence_store s th addr;
    do_store s th addr (operand_value th src)
  | Instr.Atomic_rmw { op; dst; base; offset; src } ->
    let addr = th.regs.(Reg.to_int base) + offset in
    fence_store s th addr;
    if Tracer.enabled s.obs.Obs.tracer then
      Tracer.instant s.obs.Obs.tracer ~track:(Tracer.Core th.core)
        ~name:"atomic" ~ts:th.cycle;
    let load_cost = do_load s th addr in
    let old_value = s.lval in
    let new_value = Instr.eval_binop op old_value (operand_value th src) in
    let store_cost = do_store s th addr new_value in
    th.regs.(Reg.to_int dst) <- old_value;
    load_cost + store_cost
  | Instr.Fence ->
    if Tracer.enabled s.obs.Obs.tracer then
      Tracer.instant s.obs.Obs.tracer ~track:(Tracer.Core th.core)
        ~name:"fence" ~ts:th.cycle;
    1
  | Instr.Out src ->
    let value = operand_value th src in
    if s.journal_io && Persist.mode s.persist <> Persist.Volatile then
      Persist.on_out s.persist ~core:th.core ~value
    else begin
      th.outputs <- value :: th.outputs;
      th.out_cycles <- (value, th.cycle) :: th.out_cycles
    end;
    1
  | Instr.Boundary { id } ->
    s.payload_count <- s.payload_count - 1;
    exec_boundary s th ~id
  | Instr.Ckpt { reg; slot } ->
    s.payload_count <- s.payload_count - 1;
    s.ckpt_count <- s.ckpt_count + 1;
    th.cur_region_stores <- th.cur_region_stores + 1;
    th.cur_region_ckpts <- th.cur_region_ckpts + 1;
    Persist.on_ckpt s.persist ~core:th.core ~slot
      ~value:th.regs.(Reg.to_int reg);
    1
  | Instr.Ckpt_load _ ->
    failwith "Executor: Ckpt_load outside a recovery block"

let exec_term s (th : thread) =
  match th.cur.Code.rterm with
  | Code.Jump idx ->
    goto s th idx;
    1
  | Code.Branch { cond; if_true; if_false } ->
    let taken = operand_value th cond <> 0 in
    goto s th (if taken then if_true else if_false);
    1
  | Code.Call { callee_entry; ret_addr } ->
    fence_store s th (th.regs.(sp_idx) - 1);
    let sp = th.regs.(sp_idx) - 1 in
    th.regs.(sp_idx) <- sp;
    let cost = do_store s th sp ret_addr in
    goto s th callee_entry;
    1 + cost
  | Code.Ret ->
    let sp = th.regs.(sp_idx) in
    let cost = do_load s th sp in
    let ret_addr = s.lval in
    th.regs.(sp_idx) <- sp + 1;
    goto s th (Code.index_of_addr s.code ret_addr);
    1 + cost
  | Code.Halt -> exec_halt s th

let step s (th : thread) =
  s.instr_count <- s.instr_count + 1;
  th.cur_region_instrs <- th.cur_region_instrs + 1;
  let cost =
    let block = th.cur.Code.instrs in
    if th.index < Array.length block then begin
      let i = Array.unsafe_get block th.index in
      th.index <- th.index + 1;
      try exec_instr s th i
      with Retry_conflict ->
        (* Undo the fetch: the instruction re-executes once the other
           core's conflicting region has committed. *)
        th.index <- th.index - 1;
        s.instr_count <- s.instr_count - 1;
        th.cur_region_instrs <- th.cur_region_instrs - 1;
        s.payload_count <- s.payload_count - 1;
        conflict_retry_cycles
    end
    else
      try exec_term s th
      with Retry_conflict ->
        s.instr_count <- s.instr_count - 1;
        th.cur_region_instrs <- th.cur_region_instrs - 1;
        conflict_retry_cycles
  in
  th.cycle <- th.cycle + cost

(* ------------------------------------------------------------------ *)
(* The compiled tier.                                                  *)
(*                                                                     *)
(* Each block is lowered once per session into a flat closure array    *)
(* (one closure per instruction, the terminator at index [length       *)
(* instrs]); operands are pre-resolved register indices or unwrapped   *)
(* immediates, and session-constant facts — journaling, tracer         *)
(* enablement, the conflict fence — are decided at lowering time, so   *)
(* the dispatch loop is [fns.(pc) th] with no AST match, no operand    *)
(* re-resolution and no dead conditionals.                             *)
(* ------------------------------------------------------------------ *)

(* [Instr.eval_binop] re-matches the operator per call; resolving the
   operator to a first-class function once at lowering time leaves one
   indirect call per ALU instruction. *)
let binop_fn : Instr.binop -> int -> int -> int = function
  | Instr.Add -> ( + )
  | Instr.Sub -> ( - )
  | Instr.Mul -> ( * )
  | Instr.Div -> fun a b -> if b = 0 then 0 else a / b
  | Instr.Rem -> fun a b -> if b = 0 then 0 else a mod b
  | Instr.And -> ( land )
  | Instr.Or -> ( lor )
  | Instr.Xor -> ( lxor )
  | Instr.Shl -> fun a b -> a lsl (b land 63)
  | Instr.Shr -> fun a b -> a asr (b land 63)
  | Instr.Lt -> fun a b -> if a < b then 1 else 0
  | Instr.Le -> fun a b -> if a <= b then 1 else 0
  | Instr.Eq -> fun a b -> if a = b then 1 else 0
  | Instr.Ne -> fun a b -> if a <> b then 1 else 0
  | Instr.Min -> min
  | Instr.Max -> max

(* Like [goto], but also swaps in the target block's closure array. *)
let goto_c s (th : thread) idx =
  th.cur <- Code.block s.code idx;
  th.cur_idx <- idx;
  th.index <- 0;
  th.cfns <- Array.unsafe_get s.cblocks idx

let lower_instr s (d : Code.dinstr) : thread -> int =
  match d with
  | Code.Dbinop { op; dst; a; b } -> (
    (* The two hottest shapes (reg/reg and reg/imm add) get dedicated
       closures with the operator inlined; everything else goes through
       the resolved operator function. *)
    match (op, a, b) with
    | Instr.Add, Code.Dreg ra, Code.Dreg rb ->
      fun th ->
        s.payload_count <- s.payload_count + 1;
        th.regs.(dst) <- th.regs.(ra) + th.regs.(rb);
        1
    | Instr.Add, Code.Dreg ra, Code.Dimm i ->
      fun th ->
        s.payload_count <- s.payload_count + 1;
        th.regs.(dst) <- th.regs.(ra) + i;
        1
    | _, _, _ -> (
      let f = binop_fn op in
      match (a, b) with
      | Code.Dreg ra, Code.Dreg rb ->
        fun th ->
          s.payload_count <- s.payload_count + 1;
          th.regs.(dst) <- f th.regs.(ra) th.regs.(rb);
          1
      | Code.Dreg ra, Code.Dimm i ->
        fun th ->
          s.payload_count <- s.payload_count + 1;
          th.regs.(dst) <- f th.regs.(ra) i;
          1
      | Code.Dimm i, Code.Dreg rb ->
        fun th ->
          s.payload_count <- s.payload_count + 1;
          th.regs.(dst) <- f i th.regs.(rb);
          1
      | Code.Dimm ia, Code.Dimm ib ->
        let v = f ia ib in
        fun th ->
          s.payload_count <- s.payload_count + 1;
          th.regs.(dst) <- v;
          1))
  | Code.Dmov { dst; src } -> (
    match src with
    | Code.Dreg rs ->
      fun th ->
        s.payload_count <- s.payload_count + 1;
        th.regs.(dst) <- th.regs.(rs);
        1
    | Code.Dimm i ->
      fun th ->
        s.payload_count <- s.payload_count + 1;
        th.regs.(dst) <- i;
        1)
  | Code.Dload { dst; base; offset } ->
    fun th ->
      s.payload_count <- s.payload_count + 1;
      let cost = do_load s th (th.regs.(base) + offset) in
      let value = s.lval in
      th.regs.(dst) <- value;
      cost
  | Code.Dstore { base; offset; src } -> (
    (* The fence probe raises before any state change, so the burst
       loop's retry rollback never has to undo a partial store; with the
       fence off (every timing run) the probe is compiled out. *)
    let fence = s.fence_on in
    match src with
    | Code.Dreg rs ->
      if fence then
        fun th ->
          let addr = th.regs.(base) + offset in
          fence_store s th addr;
          s.payload_count <- s.payload_count + 1;
          do_store s th addr th.regs.(rs)
      else
        fun th ->
          s.payload_count <- s.payload_count + 1;
          do_store s th (th.regs.(base) + offset) th.regs.(rs)
    | Code.Dimm v ->
      if fence then
        fun th ->
          let addr = th.regs.(base) + offset in
          fence_store s th addr;
          s.payload_count <- s.payload_count + 1;
          do_store s th addr v
      else
        fun th ->
          s.payload_count <- s.payload_count + 1;
          do_store s th (th.regs.(base) + offset) v)
  | Code.Datomic { op; dst; base; offset; src } ->
    let f = binop_fn op in
    let fence = s.fence_on in
    let trace_on = Tracer.enabled s.obs.Obs.tracer in
    fun th ->
      let addr = th.regs.(base) + offset in
      if fence then fence_store s th addr;
      s.payload_count <- s.payload_count + 1;
      if trace_on then
        Tracer.instant s.obs.Obs.tracer ~track:(Tracer.Core th.core)
          ~name:"atomic" ~ts:th.cycle;
      let load_cost = do_load s th addr in
    let old_value = s.lval in
      let v = match src with Code.Dreg r -> th.regs.(r) | Code.Dimm i -> i in
      let store_cost = do_store s th addr (f old_value v) in
      th.regs.(dst) <- old_value;
      load_cost + store_cost
  | Code.Dfence ->
    if Tracer.enabled s.obs.Obs.tracer then
      fun th ->
        s.payload_count <- s.payload_count + 1;
        Tracer.instant s.obs.Obs.tracer ~track:(Tracer.Core th.core)
          ~name:"fence" ~ts:th.cycle;
        1
    else
      fun _ ->
        s.payload_count <- s.payload_count + 1;
        1
  | Code.Dout src ->
    let journaled =
      s.journal_io && Persist.mode s.persist <> Persist.Volatile
    in
    let read =
      match src with
      | Code.Dreg r -> fun (th : thread) -> th.regs.(r)
      | Code.Dimm i -> fun _ -> i
    in
    if journaled then
      fun th ->
        s.payload_count <- s.payload_count + 1;
        Persist.on_out s.persist ~core:th.core ~value:(read th);
        1
    else
      fun th ->
        s.payload_count <- s.payload_count + 1;
        let v = read th in
        th.outputs <- v :: th.outputs;
        th.out_cycles <- (v, th.cycle) :: th.out_cycles;
        1
  | Code.Dboundary { id } -> fun th -> exec_boundary s th ~id
  | Code.Dckpt { reg; slot } ->
    fun th ->
      s.ckpt_count <- s.ckpt_count + 1;
      th.cur_region_stores <- th.cur_region_stores + 1;
      th.cur_region_ckpts <- th.cur_region_ckpts + 1;
      Persist.on_ckpt s.persist ~core:th.core ~slot
        ~value:th.regs.(reg);
      1
  | Code.Dckpt_load _ ->
    fun _ -> failwith "Executor: Ckpt_load outside a recovery block"

let lower_term s ~len (d : Code.dterm) : thread -> int =
  match d with
  | Code.Djump idx ->
    fun th ->
      goto_c s th idx;
      1
  | Code.Dbranch { cond; if_true; if_false } -> (
    match cond with
    | Code.Dreg rc ->
      fun th ->
        goto_c s th (if th.regs.(rc) <> 0 then if_true else if_false);
        1
    | Code.Dimm i ->
      let target = if i <> 0 then if_true else if_false in
      fun th ->
        goto_c s th target;
        1)
  | Code.Dcall { callee_entry; ret_addr } ->
    if s.fence_on then
      fun th ->
        fence_store s th (th.regs.(sp_idx) - 1);
        let sp = th.regs.(sp_idx) - 1 in
        th.regs.(sp_idx) <- sp;
        let cost = do_store s th sp ret_addr in
        goto_c s th callee_entry;
        1 + cost
    else
      fun th ->
        let sp = th.regs.(sp_idx) - 1 in
        th.regs.(sp_idx) <- sp;
        let cost = do_store s th sp ret_addr in
        goto_c s th callee_entry;
        1 + cost
  | Code.Dret ->
    fun th ->
      let sp = th.regs.(sp_idx) in
      let cost = do_load s th sp in
    let ret_addr = s.lval in
      th.regs.(sp_idx) <- sp + 1;
      goto_c s th (Code.index_of_addr s.code ret_addr);
      1 + cost
  | Code.Dhalt ->
    fun th ->
      let cost = exec_halt s th in
      (* Park the halted thread at its terminator, exactly where the
         interpreter leaves it (visible through [positions]). *)
      th.index <- len;
      cost

let install_compiled s =
  let decoded = Code.compile s.code in
  s.cblocks <-
    Array.map
      (fun (db : Code.compiled_block) ->
        let ni = Array.length db.Code.dinstrs in
        Array.init (ni + 1) (fun i ->
            if i < ni then lower_instr s db.Code.dinstrs.(i)
            else lower_term s ~len:ni db.Code.dterm))
      decoded;
  s.fast_len <-
    Array.map
      (fun (db : Code.compiled_block) ->
        if db.Code.fast then Array.length db.Code.dinstrs + 1 else 0)
      decoded;
  Array.iter (fun th -> th.cfns <- s.cblocks.(th.cur_idx)) s.threads

(* The compiled engine's [step]: same counter discipline and conflict
   rollback as the interpreter's, dispatching through the closure
   array. *)
let exec_one s (th : thread) =
  s.instr_count <- s.instr_count + 1;
  th.cur_region_instrs <- th.cur_region_instrs + 1;
  let i = th.index in
  th.index <- i + 1;
  let cost =
    try (Array.unsafe_get th.cfns i) th
    with Retry_conflict ->
      th.index <- i;
      s.instr_count <- s.instr_count - 1;
      th.cur_region_instrs <- th.cur_region_instrs - 1;
      conflict_retry_cycles
  in
  th.cycle <- th.cycle + cost

let finish s =
  Hierarchy.publish s.hier;
  let cycles = Array.fold_left (fun acc th -> max acc th.cycle) 0 s.threads in
  let outputs, acks =
    if s.journal_io && Persist.mode s.persist <> Persist.Volatile then begin
      (* The final regions' commits drain in the background; pull the
         clock far enough forward to read the complete journal. *)
      Persist.advance s.persist ~cycle:(cycles + 1_000_000);
      ( Array.map (fun th -> Persist.journal s.persist ~core:th.core) s.threads,
        Array.map
          (fun th -> Persist.journal_entries s.persist ~core:th.core)
          s.threads )
    end
    else
      ( Array.map (fun th -> List.rev th.outputs) s.threads,
        Array.map (fun th -> List.rev th.out_cycles) s.threads )
  in
  Finished
    {
      cycles;
      instrs = s.instr_count;
      payload_instrs = s.payload_count;
      stores = s.store_count;
      ckpt_stores = s.ckpt_count;
      boundaries = s.boundary_count;
      region_stats =
        {
          regions_executed = s.r_regions;
          total_instrs = s.r_instrs;
          total_stores = s.r_stores;
          max_stores_in_region = s.r_max_stores;
        };
      profile = s.profile;
      outputs;
      acks;
      memory = s.memory;
      final_regs = Array.map (fun th -> Array.copy th.regs) s.threads;
      persist_stats = Persist.stats s.persist;
      hier_stats = Hierarchy.stats s.hier;
      stale_reads = s.stale_reads;
    }

let livelock (th : thread) =
  raise
    (Livelock
       { core = th.core; region = region_name th.cur_region_id;
         steps = th.steps })

let fire_crash s crashed (th : thread) =
  if Tracer.enabled s.obs.Obs.tracer then begin
    Tracer.instant s.obs.Obs.tracer ~track:Tracer.Proxy ~name:crash_instant
      ~ts:th.cycle
      ~args:[ (instr_arg, string_of_int s.instr_count) ];
    (* The crash tears down mid-region: close the spans it interrupted
       so the trace stays balanced across the boundary. *)
    Tracer.close_open s.obs.Obs.tracer ~ts:th.cycle
  end;
  let image =
    Persist.crash_recover ~jobs:s.recovery_jobs s.persist ~cycle:th.cycle
  in
  Hierarchy.drop_all s.hier;
  crashed :=
    Some
      {
        image;
        at_instr = s.instr_count;
        at_cycle = th.cycle;
        outputs_before = Array.map (fun th -> List.rev th.outputs) s.threads;
      }

let run_interp ?crash_at_instr ~max_steps s =
  let crashed = ref None in
  let rec loop () =
    (* Earliest-cycle runnable thread. *)
    let next =
      Array.fold_left
        (fun acc th ->
          if th.halted then acc
          else
            match acc with
            | Some best when best.cycle <= th.cycle -> acc
            | Some _ | None -> Some th)
        None s.threads
    in
    match next with
    | None -> ()
    | Some th ->
      (match crash_at_instr with
       | Some n when s.instr_count >= n -> fire_crash s crashed th
       | Some _ | None ->
         th.steps <- th.steps + 1;
         if th.steps > max_steps then livelock th;
         step s th;
         loop ())
  in
  loop ();
  match !crashed with Some c -> Crashed c | None -> finish s

(* The compiled scheduler. Equivalent to re-running the interpreter's
   earliest-cycle-first pick after every step, but built around bursts:
   once picked, a thread keeps stepping until its cycle count passes the
   point where the global pick could prefer another thread — for all
   lower-indexed rivals [o] that is [o.cycle - 1] (they win ties), for
   higher-indexed ones [o.cycle]. Within a burst, whole fused-eligible
   blocks run with per-block (not per-instruction) budget checks when
   nothing can interleave: a single runnable thread, no conflict fence,
   and crash/step budgets that cannot expire mid-block. *)
let run_compiled ?crash_at_instr ~max_steps s =
  let crashed = ref None in
  let threads = s.threads in
  let nthreads = Array.length threads in
  let crash_n =
    match crash_at_instr with Some n -> n | None -> max_int
  in
  let fuse = not s.fence_on in
  let pick () =
    let best = ref (-1) and bestc = ref max_int in
    for j = 0 to nthreads - 1 do
      let th = threads.(j) in
      if (not th.halted) && th.cycle < !bestc then begin
        best := j;
        bestc := th.cycle
      end
    done;
    !best
  in
  let rec sched () =
    let k = pick () in
    if k >= 0 then begin
      let th = threads.(k) in
      if s.instr_count >= crash_n then fire_crash s crashed th
      else begin
        let bound = ref max_int in
        for j = 0 to nthreads - 1 do
          if j <> k then begin
            let o = threads.(j) in
            if not o.halted then begin
              let c = if j < k then o.cycle - 1 else o.cycle in
              if c < !bound then bound := c
            end
          end
        done;
        let bound = !bound in
        let continue = ref true in
        while !continue do
          let fl =
            if th.index = 0 then Array.unsafe_get s.fast_len th.cur_idx
            else 0
          in
          if
            fuse && fl > 0 && bound = max_int
            && s.instr_count + fl <= crash_n
            && th.steps + fl <= max_steps
          then begin
            th.steps <- th.steps + fl;
            s.instr_count <- s.instr_count + fl;
            th.cur_region_instrs <- th.cur_region_instrs + fl;
            let fns = th.cfns in
            for i = 0 to fl - 1 do
              th.cycle <- th.cycle + (Array.unsafe_get fns i) th
            done
          end
          else begin
            th.steps <- th.steps + 1;
            if th.steps > max_steps then livelock th;
            exec_one s th
          end;
          if th.halted || th.cycle > bound || s.instr_count >= crash_n then
            continue := false
        done;
        sched ()
      end
    end
  in
  sched ();
  match !crashed with Some c -> Crashed c | None -> finish s

let run ?crash_at_instr ?(max_steps = 100_000_000) s =
  match s.engine with
  | Interp -> run_interp ?crash_at_instr ~max_steps s
  | Compiled ->
    if Array.length s.cblocks = 0 then install_compiled s;
    run_compiled ?crash_at_instr ~max_steps s

let positions s =
  Array.map
    (fun th ->
      (th.cur.Code.fname, Label.to_string th.cur.Code.label, th.index,
       th.cycle))
    s.threads

(* ------------------------------------------------------------------ *)
(* The region timeline, read back from the tracer.                     *)
(* ------------------------------------------------------------------ *)

(* A region span's begin event, as [(core, instr)]. Boundary-stall
   sub-spans and the serving layer's request spans are not region
   spans; neither is anything without the [instr] argument. *)
let region_begin (e : Tracer.event) =
  match (e.Tracer.phase, e.Tracer.track) with
  | Tracer.B, Tracer.Core core when e.Tracer.name <> stall_span ->
    Option.map (fun i -> (core, i)) (List.assoc_opt instr_arg e.Tracer.args)
  | _ -> None

let boundary_instrs tr =
  List.filter_map
    (fun e -> Option.map (fun (_, i) -> int_of_string i) (region_begin e))
    (Tracer.events tr)
  |> List.sort_uniq Int.compare

let timeline_row (e : Tracer.event) =
  match (region_begin e, e.Tracer.phase, e.Tracer.track) with
  | Some (core, instr), _, _ ->
    (* region spans are named by [region_name]: "b" ^ boundary id *)
    let id = String.sub e.Tracer.name 1 (String.length e.Tracer.name - 1) in
    let stores =
      Option.value ~default:"?" (List.assoc_opt stores_arg e.Tracer.args)
    in
    Some
      (Printf.sprintf
         "%-10d %-5d boundary #%s (region closed with %s stores, instr %s)\n"
         e.Tracer.ts core id stores instr)
  | None, Tracer.I, Tracer.Core core when e.Tracer.name = halt_instant ->
    Some (Printf.sprintf "%-10d %-5d halt\n" e.Tracer.ts core)
  | None, Tracer.I, Tracer.Proxy when e.Tracer.name = crash_instant ->
    Some (Printf.sprintf "%-10d ----- POWER FAILURE\n" e.Tracer.ts)
  | None, _, _ -> None

let render_timeline ?(max_rows = 64) tr =
  let rows = List.filter_map timeline_row (Tracer.events tr) in
  let total = List.length rows in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "cycle      core  event\n";
  List.iteri
    (fun i row ->
      if total <= max_rows || i < max_rows / 2 || i >= total - (max_rows / 2)
      then Buffer.add_string buf row
      else if i = max_rows / 2 then
        Buffer.add_string buf
          (Printf.sprintf "  ... %d events elided ...\n" (total - max_rows)))
    rows;
  if total > max_rows then
    Buffer.add_string buf
      (Printf.sprintf "… (+%d more rows)\n" (total - max_rows));
  Buffer.contents buf
