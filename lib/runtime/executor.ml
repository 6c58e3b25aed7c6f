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

type region_row = {
  id : int;
  mutable executions : int;
  mutable instrs : int;
  mutable stores : int;
  mutable max_stores : int;
  mutable ckpt_stores : int;
  mutable stall_cycles : int;
  mutable commits : int;
  mutable commit_latency : int;
  mutable nvm_lines : int;
}

type result = {
  cycles : int;
  instrs : int;
  payload_instrs : int;
  stores : int;
  ckpt_stores : int;
  boundaries : int;
  region_stats : region_stats;
  profile : region_row array;
      (* one row per static region, in [Code.row_ids] order *)
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
  mutable cur_idx : int;  (* index of the current block in [Code] *)
  mutable cfns : (thread -> int) array;
      (* the current block's closure array — one closure per instruction
         plus the terminator at index [length dinstrs]; each returns its
         cycle cost *)
  mutable index : int;
  mutable cycle : int;
  mutable steps : int;
      (* scheduler step attempts (conflict retries included) — the
         per-thread unit both schedulers charge the [max_steps] budget in *)
  mutable halted : bool;
  mutable outputs : int list;  (* reversed *)
  mutable out_cycles : (int * int) list;  (* (value, cycle), reversed *)
  (* dynamic region accounting *)
  mutable cur_region_instrs : int;
  mutable cur_region_stores : int;
  mutable cur_region_ckpts : int;
  mutable cur_region_stall : int;  (* store-stall cycles inside the region *)
  mutable cur_row : int;
      (* the open region's tally row; -1 before the first boundary and
         after the halt *)
}

type session = {
  config : Config.t;
  program : Program.t;  (* the program [start] loaded *)
  specs : thread_spec list;
  journal_io : bool;
  code : Code.t;
      (* decoded by [start] and kept across [resume]s; sessions over
         distinct programs (even ones sharing function and label names)
         are fully isolated *)
  memory : Memory.t;
  hier : Hierarchy.t;
  persist : Persist.t;
  fence_on : bool;  (* Persist.fence_active, hoisted out of the store path *)
  mutable cblocks : (thread -> int) array array;
      (* closure array per block index, lowered right after the session
         record exists so the closures can capture it and the
         session-constant facts (journaling, tracer enablement, fence) *)
  fast_len : int array;
      (* per block index: number of closures (instrs + terminator) when
         the block is eligible for the fused loop, 0 otherwise *)
  mutable threads : thread array;  (* made by [restart_run] *)
  check_threshold : int option;
  mutable crashed : bool;  (* a crash fired and no [resume] followed yet *)
  mutable pristine : bool;
      (* in [rewind]'s state: nothing ran since, so a rewind under the
         same bundle has nothing to undo *)
  mutable instr_count : int;
  mutable payload_count : int;
  mutable store_count : int;
  mutable ckpt_count : int;
  mutable boundary_count : int;
  mutable stale_reads : int;
  lcosts : int array;
      (* per memory level: 1 + shadowed hit latency — the load cost before
         any Redo_nowb indirect-read penalty, divisions done once *)
  scosts : int array;  (* per memory level: store miss cost *)
  redo_extra : bool;  (* mode = Redo_nowb: loads may owe extra latency *)
  mutable lval : int;
      (* value of the most recent {!do_load} — an out-parameter instead of
         a result tuple per load; sessions never share a domain with each
         other, threads within one never interleave mid-instruction *)
  rows : region_row array;
      (* the run's one region tally, zeroed in place by [restart_run] *)
  mutable obs : Obs.t;
      (* rebound by [rewind]; the closures decided the tracer's
         enablement when they were lowered, so a new bundle must agree *)
  core_tracks : Tracer.track array;
      (* per core: its trace track, made once when the tracer is on (a
         [Core c] built per event would allocate); empty otherwise *)
}

let make_thread code core (spec : thread_spec) =
  let entry = Code.entry_index code spec.func in
  let regs = Array.make Reg.count 0 in
  regs.(sp_idx) <- Layout.stack_top ~core;
  List.iter (fun (r, v) -> regs.(Reg.to_int r) <- v) spec.args;
  {
    core;
    regs;
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
    cur_row = -1;
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

(* ------------------------------------------------------------------ *)
(* Stepping.                                                           *)
(* ------------------------------------------------------------------ *)

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

(* Checked before the closing boundary reaches the persist engine, so a
   violation stops the run with the region still open. *)
let check_threshold s (th : thread) =
  match s.check_threshold with
  | Some limit when th.cur_row >= 0 && th.cur_region_stores > limit ->
    failwith
      (Printf.sprintf "region store threshold violated: %d > %d (core %d)"
         th.cur_region_stores limit th.core)
  | Some _ | None -> ()

(* The one tally of a region close: its static region's row, and the
   profiler's distributions when one is on. [ckpts] adds the halt's
   staged register file to the region's own checkpoint stores; [stall]
   is the boundary or halt stall the close paid. *)
let close_dyn_region s (th : thread) ~ckpts ~stall ~next_row =
  let row = th.cur_row in
  if row >= 0 then begin
    let r = Array.unsafe_get s.rows row in
    let stores = th.cur_region_stores in
    let ckpts = th.cur_region_ckpts + ckpts in
    let stall = th.cur_region_stall + stall in
    r.executions <- r.executions + 1;
    r.instrs <- r.instrs + th.cur_region_instrs;
    r.stores <- r.stores + stores;
    r.max_stores <- Int.max r.max_stores stores;
    r.ckpt_stores <- r.ckpt_stores + ckpts;
    r.stall_cycles <- r.stall_cycles + stall;
    let p = s.obs.Obs.regions in
    if Profiler.enabled p then
      Profiler.on_close p ~stores ~ckpt_stores:ckpts ~stall_cycles:stall
  end;
  th.cur_region_instrs <- 0;
  th.cur_region_stores <- 0;
  th.cur_region_ckpts <- 0;
  th.cur_region_stall <- 0;
  th.cur_row <- next_row

(* The other half of a row: a commit of one of its closes, reported by
   the persist engine from the commit marker. *)
let commit_row s ~row ~latency ~nvm_lines =
  let r = Array.unsafe_get s.rows row in
  r.commits <- r.commits + 1;
  r.commit_latency <- r.commit_latency + latency;
  r.nvm_lines <- r.nvm_lines + nvm_lines;
  let p = s.obs.Obs.regions in
  if Profiler.enabled p then Profiler.on_commit p ~latency ~nvm_lines

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
   persist engine (which copies the line into its entry slab only when it
   creates a proxy entry), cache timing. Returns the cycle cost. *)
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
       if
         not
           (Persist.nvm_line_equal s.persist s.memory
              (Memory.line_of_addr addr))
       then s.stale_reads <- s.stale_reads + 1
     | Hierarchy.L1 | Hierarchy.L2 | Hierarchy.Dram -> ());
    let cost = Array.unsafe_get s.lcosts (level_idx level) in
    if s.redo_extra then cost + Persist.load_extra_latency s.persist level
    else cost

(* Enter block [idx]: its closure array becomes the thread's. *)
let goto s (th : thread) idx =
  th.cur_idx <- idx;
  th.index <- 0;
  th.cfns <- Array.unsafe_get s.cblocks idx

(* Region boundary and halt bookkeeping: the cold paths the lowered
   closures call into. Neither touches [payload_count]; the callers
   account it. Both return the cycle cost. *)
let exec_boundary s (th : thread) ~id ~row ~name =
  s.boundary_count <- s.boundary_count + 1;
  check_threshold s th;
  (* The region closes after Persist flushes it, so the boundary stall
     (sync modes) is tallied to the region it closes. *)
  let closing = th.cur_row >= 0 in
  let stores = th.cur_region_stores in
  let stall =
    Persist.on_boundary s.persist ~core:th.core ~cycle:th.cycle ~boundary:id
      ~sp:th.regs.(sp_idx) ~row:th.cur_row
  in
  close_dyn_region s th ~ckpts:0 ~stall ~next_row:row;
  let tr = s.obs.Obs.tracer in
  if Tracer.enabled tr then begin
    let track = Array.unsafe_get s.core_tracks th.core in
    if closing then Tracer.end_span tr ~track ~ts:th.cycle;
    Tracer.begin_span tr ~track ~name ~ts:th.cycle;
    Tracer.int_arg tr stores_arg stores;
    Tracer.int_arg tr instr_arg s.instr_count;
    if stall > 0 then begin
      Tracer.begin_span tr ~track ~name:stall_span ~ts:th.cycle;
      Tracer.end_span tr ~track ~ts:(th.cycle + stall)
    end
  end;
  1 + stall

let exec_halt s (th : thread) =
  check_threshold s th;
  let closing = th.cur_row >= 0 in
  (* Stage the full architected register file with the final region:
     its commit makes the finished thread's context durable, so a crash
     after this core halts (while others still run) can restore the
     exact final registers instead of reporting a zeroed file. *)
  Array.iteri
    (fun slot value -> Persist.on_ckpt s.persist ~core:th.core ~slot ~value)
    th.regs;
  let stall =
    Persist.on_halt s.persist ~core:th.core ~cycle:th.cycle ~row:th.cur_row
  in
  close_dyn_region s th ~ckpts:(Array.length th.regs) ~stall ~next_row:(-1);
  let tr = s.obs.Obs.tracer in
  if Tracer.enabled tr then begin
    let track = Array.unsafe_get s.core_tracks th.core in
    if closing then Tracer.end_span tr ~track ~ts:th.cycle;
    Tracer.instant tr ~track ~name:halt_instant ~ts:th.cycle
  end;
  th.halted <- true;
  1 + stall

(* ------------------------------------------------------------------ *)
(* Lowering: the instruction semantics.                                *)
(*                                                                     *)
(* Each block is lowered once per session into a flat closure array    *)
(* (one closure per instruction, the terminator at index [length       *)
(* dinstrs]); operands are pre-resolved register indices or unwrapped  *)
(* immediates, and session-constant facts — journaling, tracer         *)
(* enablement, the conflict fence — are decided at lowering time, so   *)
(* the dispatch loop is [fns.(pc) th] with no AST match, no operand    *)
(* re-resolution and no dead conditionals.                             *)
(* ------------------------------------------------------------------ *)
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
      let f = Instr.binop_fn op in
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
    let f = Instr.binop_fn op in
    let fence = s.fence_on in
    let trace_on = Tracer.enabled s.obs.Obs.tracer in
    fun th ->
      let addr = th.regs.(base) + offset in
      if fence then fence_store s th addr;
      s.payload_count <- s.payload_count + 1;
      if trace_on then
        Tracer.instant s.obs.Obs.tracer
          ~track:(Array.unsafe_get s.core_tracks th.core)
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
        Tracer.instant s.obs.Obs.tracer
          ~track:(Array.unsafe_get s.core_tracks th.core)
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
  | Code.Dboundary { id; row } ->
    (* the region span's name, built once and only when it is traced *)
    let name =
      if Tracer.enabled s.obs.Obs.tracer then region_name id else ""
    in
    fun th -> exec_boundary s th ~id ~row ~name
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
      goto s th idx;
      1
  | Code.Dbranch { cond; if_true; if_false } -> (
    match cond with
    | Code.Dreg rc ->
      fun th ->
        goto s th (if th.regs.(rc) <> 0 then if_true else if_false);
        1
    | Code.Dimm i ->
      let target = if i <> 0 then if_true else if_false in
      fun th ->
        goto s th target;
        1)
  | Code.Dcall { callee_entry; ret_addr } ->
    if s.fence_on then
      fun th ->
        fence_store s th (th.regs.(sp_idx) - 1);
        let sp = th.regs.(sp_idx) - 1 in
        th.regs.(sp_idx) <- sp;
        let cost = do_store s th sp ret_addr in
        goto s th callee_entry;
        1 + cost
    else
      fun th ->
        let sp = th.regs.(sp_idx) - 1 in
        th.regs.(sp_idx) <- sp;
        let cost = do_store s th sp ret_addr in
        goto s th callee_entry;
        1 + cost
  | Code.Dret ->
    fun th ->
      let sp = th.regs.(sp_idx) in
      let cost = do_load s th sp in
      let ret_addr = s.lval in
      th.regs.(sp_idx) <- sp + 1;
      goto s th (Code.index_of_addr s.code ret_addr);
      1 + cost
  | Code.Dhalt ->
    fun th ->
      let cost = exec_halt s th in
      (* Park the halted thread at its terminator (visible through
         [positions]): the dispatch already moved [index] past it. *)
      th.index <- len;
      cost

(* ------------------------------------------------------------------ *)
(* Sessions.                                                           *)
(* ------------------------------------------------------------------ *)

let lower_block s (b : Code.block) =
  let ni = Array.length b.Code.dinstrs in
  Array.init (ni + 1) (fun i ->
      if i < ni then lower_instr s b.Code.dinstrs.(i)
      else lower_term s ~len:ni b.Code.dterm)

(* The loader durably records a thread's initial context, so a crash
   inside its very first region restores the right arguments. The thread
   still stands at its entry block, whose leading boundary (if any) it
   resumes at. *)
let init_slots s (th : thread) =
  let entry = (Code.block s.code th.cur_idx).Code.dinstrs in
  let resume_boundary =
    match entry with
    | [||] -> None
    | _ -> (
      match entry.(0) with Code.Dboundary { id; _ } -> Some id | _ -> None)
  in
  Persist.init_slots s.persist ~core:th.core ~slots:th.regs ~resume_boundary
    ~sp:th.regs.(sp_idx)

let zero_row r =
  r.executions <- 0;
  r.instrs <- 0;
  r.stores <- 0;
  r.max_stores <- 0;
  r.ckpt_stores <- 0;
  r.stall_cycles <- 0;
  r.commits <- 0;
  r.commit_latency <- 0;
  r.nvm_lines <- 0

(* The run's own state at its start values, for [rewind] and for
   [resume] on a crashed session: the counters, the region rows (zeroed
   in place) and one new thread per spec at its entry. *)
let restart_run s =
  s.instr_count <- 0;
  s.payload_count <- 0;
  s.store_count <- 0;
  s.ckpt_count <- 0;
  s.boundary_count <- 0;
  s.stale_reads <- 0;
  s.lval <- 0;
  Array.iter zero_row s.rows;
  s.threads <-
    Array.of_list
      (List.mapi
         (fun core spec ->
           let th = make_thread s.code core spec in
           goto s th th.cur_idx;
           th)
         s.specs)

(* [start]'s state, written in place: memory holding the program's data
   image only, the caches empty, the persist engine over that image (the
   loader wrote it, so it is durable before execution starts; installed
   directly, since the writeback path would lose it under Redo_nowb,
   which drops dirty writebacks by design), the run's counters at zero
   and one thread per spec at its function's entry, its initial context
   durable. The decoded code, the lowered closures and every page,
   cache set and proxy buffer already allocated are kept. *)
let rewind ?obs s =
  let obs = Option.value obs ~default:s.obs in
  if Tracer.enabled obs.Obs.tracer <> Tracer.enabled s.obs.Obs.tracer then
    invalid_arg
      "Executor.rewind: the session's closures were lowered for the other \
       tracer setting";
  if not (s.pristine && obs == s.obs) then begin
    s.obs <- obs;
    s.crashed <- false;
    Memory.clear s.memory;
    load_data s.program s.memory;
    Hierarchy.drop_all s.hier;
    Hierarchy.reset ~obs s.hier;
    Persist.restart ~obs s.persist s.memory;
    restart_run s;
    Array.iter (init_slots s) s.threads;
    s.pristine <- true
  end

(* A new machine: memory, a persist engine and a cache hierarchy, every
   block of the program decoded and lowered, then [rewind] to the start
   state. A writeback hands the persist engine the line's current words
   through one per-session buffer. The program is decoded only after the
   caches are built: building them can trigger a minor collection, which
   would promote a decode made before it. *)
let start ?(config = Config.sim_default) ?(mode = Persist.Capri)
    ?(journal_io = false) ?(obs = Obs.null) ?check_threshold ~program
    ~threads:specs () =
  let memory = Memory.create () in
  let config = { config with Config.cores = max 1 (List.length specs) } in
  let persist = Persist.create ~obs config ~mode in
  let wb_data = Array.make Config.line_words 0 in
  let hier =
    Hierarchy.create ~obs ~labels:[ ("mode", Persist.mode_name mode) ] config
      ~on_nvm_writeback:(fun ~cycle ~line ->
        Memory.blit_line memory line wb_data 0;
        Persist.on_writeback persist ~cycle ~line ~data:wb_data
          ~version:(Memory.line_version memory line))
  in
  let code = Code.build program in
  let lcosts, scosts = mk_cost_tables config in
  let s =
    {
      config;
      program;
      specs;
      journal_io;
      code;
      memory;
      hier;
      persist;
      fence_on = Persist.fence_active persist;
      cblocks = [||];
      fast_len =
        Array.init (Code.length code) (fun idx ->
            let b = Code.block code idx in
            if b.Code.fast then Array.length b.Code.dinstrs + 1 else 0);
      threads = [||];
      check_threshold;
      crashed = false;
      pristine = false;
      instr_count = 0;
      payload_count = 0;
      store_count = 0;
      ckpt_count = 0;
      boundary_count = 0;
      stale_reads = 0;
      lcosts;
      scosts;
      redo_extra = (mode = Persist.Redo_nowb);
      lval = 0;
      rows =
        Array.map
          (fun id ->
            { id; executions = 0; instrs = 0; stores = 0; max_stores = 0;
              ckpt_stores = 0; stall_cycles = 0; commits = 0;
              commit_latency = 0; nvm_lines = 0 })
          (Code.row_ids code);
      obs;
      core_tracks =
        (if Tracer.enabled obs.Obs.tracer then
           Array.init config.Config.cores (fun c -> Tracer.Core c)
         else [||]);
    }
  in
  s.cblocks <-
    Array.init (Code.length code) (fun idx ->
        lower_block s (Code.block code idx));
  Persist.set_commit_hook persist (fun ~row ~latency ~nvm_lines ->
      commit_row s ~row ~latency ~nvm_lines);
  rewind s;
  s

let resume ~(compiled : Capri_compiler.Compiled.t) ~(image : Persist.image) s =
  (* The image's resume boundaries are [compiled]'s region ids. *)
  if s.program != compiled.Capri_compiler.Compiled.program then
    invalid_arg "Executor.resume: the session did not run compiled's program";
  if not s.crashed then
    invalid_arg "Executor.resume: the session has no crash to resume from";
  s.crashed <- false;
  (* Power-on: DRAM refilled from NVM, the caches empty, the persist
     engine over the recovered image. The lowered closures capture [s],
     whose journaling, tracer and fence settings stay as they were, so
     they are kept. *)
  Memory.reload s.memory ~from:image.Persist.nvm;
  Hierarchy.reset s.hier;
  Persist.restart s.persist image.Persist.nvm;
  restart_run s;
  (* Position each thread and seed its durable per-core records from the
     image (from scratch for threads that never reached their first
     boundary). *)
  Array.iteri
    (fun i th ->
      let slots = image.Persist.slots.(i) in
      (match image.Persist.resume.(i) with
       | Persist.Never_started -> init_slots s th
       | Persist.Done ->
         (* The halt path staged the whole register file with the final
            region, so the slot array holds this finished thread's exact
            final context. *)
         Array.blit slots 0 th.regs 0 Reg.count;
         th.halted <- true;
         Persist.seed_core s.persist ~core:i ~slots ~resume:Persist.Done
       | Persist.Resume { boundary; sp } as resume ->
         let region =
           Capri_compiler.Region_map.find
             compiled.Capri_compiler.Compiled.regions boundary
         in
         Array.blit slots 0 th.regs 0 Reg.count;
         th.regs.(sp_idx) <- sp;
         goto s th
           (Code.index_of s.code ~func:region.Capri_compiler.Region_map.func
              region.Capri_compiler.Region_map.head);
         Persist.seed_core s.persist ~core:i ~slots ~resume);
      if s.journal_io then
        Persist.seed_journal s.persist ~core:i
          ~base:image.Persist.acked_base.(i)
          ~outs:image.Persist.journal.(i) ())
    s.threads;
  s

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)
(* ------------------------------------------------------------------ *)

(* One step of [th]: dispatch its next closure. A store the conflict
   fence blocks raises before changing any state; the fetch is rolled
   back and the thread is charged the retry delay instead. Only a fenced
   session's closures can raise, so the others step without a handler. *)
let exec_one s (th : thread) =
  s.instr_count <- s.instr_count + 1;
  th.cur_region_instrs <- th.cur_region_instrs + 1;
  let i = th.index in
  th.index <- i + 1;
  let f = Array.unsafe_get th.cfns i in
  let cost =
    if not s.fence_on then f th
    else
      try f th
      with Retry_conflict ->
        th.index <- i;
        s.instr_count <- s.instr_count - 1;
        th.cur_region_instrs <- th.cur_region_instrs - 1;
        conflict_retry_cycles
  in
  th.cycle <- th.cycle + cost

(* Every closed region lands in exactly one row, so the run's region
   totals are sums (and a max) over the rows. *)
let region_stats rows =
  Array.fold_left
    (fun acc r ->
      {
        regions_executed = acc.regions_executed + r.executions;
        total_instrs = acc.total_instrs + r.instrs;
        total_stores = acc.total_stores + r.stores;
        max_stores_in_region = Int.max acc.max_stores_in_region r.max_stores;
      })
    {
      regions_executed = 0;
      total_instrs = 0;
      total_stores = 0;
      max_stores_in_region = 0;
    }
    rows

let finish s =
  Hierarchy.publish s.hier;
  let cycles =
    Array.fold_left (fun acc th -> Int.max acc th.cycle) 0 s.threads
  in
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
      region_stats = region_stats s.rows;
      profile = s.rows;
      outputs;
      acks;
      memory = s.memory;
      final_regs = Array.map (fun th -> Array.copy th.regs) s.threads;
      persist_stats = Persist.stats s.persist;
      hier_stats = Hierarchy.stats s.hier;
      stale_reads = s.stale_reads;
    }

let livelock s (th : thread) =
  let id = if th.cur_row < 0 then -1 else s.rows.(th.cur_row).id in
  raise (Livelock { core = th.core; region = region_name id; steps = th.steps })

let fire_crash s crashed (th : thread) =
  if Tracer.enabled s.obs.Obs.tracer then begin
    Tracer.instant s.obs.Obs.tracer ~track:Tracer.Proxy ~name:crash_instant
      ~ts:th.cycle;
    Tracer.int_arg s.obs.Obs.tracer instr_arg s.instr_count;
    (* The crash tears down mid-region: close the spans it interrupted
       so the trace stays balanced across the boundary. *)
    Tracer.close_open s.obs.Obs.tracer ~ts:th.cycle
  end;
  let image = Persist.crash_recover s.persist ~cycle:th.cycle in
  Hierarchy.drop_all s.hier;
  s.crashed <- true;
  crashed :=
    Some
      {
        image;
        at_instr = s.instr_count;
        at_cycle = th.cycle;
        outputs_before = Array.map (fun th -> List.rev th.outputs) s.threads;
      }

let default_max_steps = 100_000_000

(* The reference scheduler: the earliest-cycle runnable thread (lowest
   index on ties) is re-picked before every instruction, which runs
   through [exec_one] — no bursts, no fused blocks. *)
let run_reference ?crash_at_instr ?(max_steps = default_max_steps) s =
  s.pristine <- false;
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
         if th.steps > max_steps then livelock s th;
         exec_one s th;
         loop ())
  in
  loop ();
  match !crashed with Some c -> Crashed c | None -> finish s

(* The scheduler: [run_reference]'s earliest-cycle-first pick, built
   around bursts. Once picked, a thread keeps stepping until its cycle
   count passes the point where the pick could prefer another thread —
   for all lower-indexed rivals [o] that is [o.cycle - 1] (they win
   ties), for higher-indexed ones [o.cycle]. Within a burst, whole
   fused-eligible blocks run with per-block (not per-instruction) budget
   checks when nothing can interleave: a single runnable thread, no
   conflict fence, and crash/step budgets that cannot expire
   mid-block.

   Runahead: past its bound, a thread keeps running its thread-local
   closures ({!Code.thread_local}) and stops before the next shared one.
   They touch nothing another thread reads and cost one cycle each, so
   running them early moves no result; every shared closure still runs
   at or below its thread's bound, in the reference's (cycle, core)
   order. Three things observe the global order of all instructions,
   and each turns runahead off or bounds it: a crash point (counted in
   global instructions), the tracer (region spans record the global
   instruction index) and the step budget (a thread that reaches
   [max_steps] waits for its turn to raise [Livelock], so the thread the
   reference names raises first). *)
let run ?crash_at_instr ?(max_steps = default_max_steps) s =
  s.pristine <- false;
  let crashed = ref None in
  let threads = s.threads in
  let nthreads = Array.length threads in
  let crash_n =
    match crash_at_instr with Some n -> n | None -> max_int
  in
  let fuse = not s.fence_on in
  let runahead =
    Option.is_none crash_at_instr && not (Tracer.enabled s.obs.Obs.tracer)
  in
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
            if th.steps > max_steps then livelock s th;
            exec_one s th
          end;
          if th.halted || s.instr_count >= crash_n then continue := false
          else if th.cycle > bound then
            continue :=
              runahead && th.steps < max_steps
              && Code.thread_local (Code.block s.code th.cur_idx) th.index
        done;
        sched ()
      end
    end
  in
  sched ();
  match !crashed with Some c -> Crashed c | None -> finish s

let program s = s.program

let positions s =
  Array.map
    (fun th ->
      let b = Code.block s.code th.cur_idx in
      (b.Code.fname, Label.to_string b.Code.label, th.index, th.cycle))
    s.threads

(* ------------------------------------------------------------------ *)
(* The region timeline, read back from the tracer.                     *)
(* ------------------------------------------------------------------ *)

(* A region span's begin event: a B on a core track carrying the
   [instr] argument. Boundary-stall sub-spans and the serving layer's
   request spans are not region spans. *)
let is_region_begin phase track name =
  match (phase, track) with
  | Tracer.B, Tracer.Core _ -> not (String.equal name stall_span)
  | _ -> false

let region_begin (e : Tracer.event) =
  match e.Tracer.track with
  | Tracer.Core core
    when is_region_begin e.Tracer.phase e.Tracer.track e.Tracer.name ->
    Option.map (fun i -> (core, i)) (List.assoc_opt instr_arg e.Tracer.args)
  | _ -> None

let boundary_instrs tr =
  Tracer.fold_int_arg tr ~key:instr_arg
    (fun track phase name instr acc ->
      if is_region_begin phase track name then instr :: acc else acc)
    []
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

