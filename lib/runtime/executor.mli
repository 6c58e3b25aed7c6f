(** The coupled functional + timing simulator.

    Threads (one per core) execute the IR against the architectural
    {!Capri_arch.Memory} oracle while the {!Capri_arch.Hierarchy} accounts
    cache behaviour and the {!Capri_arch.Persist} engine runs the two-phase
    protocol. The scheduler always steps the thread with the smallest
    local cycle count, giving a deterministic sequentially-consistent
    interleaving that tracks simulated time.

    {!start} builds the machine: it decodes every basic block once
    ({!Code.build}) and lowers every decoded block to a flat closure
    array — operands, register indices and branch targets resolved once
    — which is the executor's only statement of instruction semantics.
    {!resume} restarts that same machine after a crash, so a whole crash
    drive builds one machine, and {!rewind} puts a stopped machine back
    into its start state, so a loop of drives over one program builds one
    machine too. Two schedulers drive the closures: {!run},
    which runs bursts and fuses whole boundary-free blocks, and
    {!run_reference}, which steps one instruction per pick and is the
    reference the differential tests hold {!run} to.

    A crash can be injected after a given number of global dynamic
    instructions; the run then returns the battery-drained durable image
    for {!Recovery} to rebuild from, and {!Recovery.drive} runs the whole
    start → crash → recover → resume cycle. *)

open Capri_ir
module Arch = Capri_arch

type thread_spec = { func : string; args : (Reg.t * int) list }

val main_thread : Program.t -> thread_spec

exception Livelock of { core : int; region : string; steps : int }
(** Raised by {!run} when one thread exceeds the per-thread step budget:
    the offending core, the dynamic region it was spinning in ("entry"
    before the first boundary) and the step count reached. *)

(** The run's closed regions in total: a fold over the result's
    [profile] rows ([executions], [instrs] and [stores] summed,
    [max_stores] maxed). *)
type region_stats = {
  regions_executed : int;  (** dynamic boundary count *)
  total_instrs : int;  (** dynamic instructions inside regions *)
  total_stores : int;  (** dynamic stores incl. checkpoints inside regions *)
  max_stores_in_region : int;
}

(** One static region's tally, the run's only record of its regions. A
    region close adds its execution, instructions, stores, checkpoint
    stores and stall cycles to its region's row, and the persist engine
    adds the close's commit, if it lands, through the commit marker
    ({!Arch.Persist.set_commit_hook}). {!region_stats},
    [Capri.compile_pgo] and [capri profile]'s hottest-regions table read
    the rows. *)
type region_row = {
  id : int;  (** the region's boundary id *)
  mutable executions : int;  (** closes *)
  mutable instrs : int;  (** dynamic instructions, the boundary's included *)
  mutable stores : int;  (** stores incl. checkpoint stores *)
  mutable max_stores : int;  (** the most stores one close held *)
  mutable ckpt_stores : int;
      (** checkpoint stores, and a halt's 32 staged register slots *)
  mutable stall_cycles : int;
      (** store stalls, plus the closing boundary's or halt's stall *)
  mutable commits : int;  (** closes whose commit landed *)
  mutable commit_latency : int;
      (** summed over the commits: commit cycle minus close cycle,
          clamped at zero *)
  mutable nvm_lines : int;  (** NVM line writes of the commits *)
}

type result = {
  cycles : int;  (** completion time: max over cores *)
  instrs : int;  (** dynamic instructions, boundaries/ckpts included *)
  payload_instrs : int;  (** dynamic instructions excl. boundary/ckpt *)
  stores : int;
  ckpt_stores : int;
  boundaries : int;
  region_stats : region_stats;
  profile : region_row array;
      (** one row per static region, ascending by boundary id, rows of
          regions that never closed included *)
  outputs : int list array;  (** per core, in emission order *)
  acks : (int * int) list array;
      (** per core: [(output, cycle)] — when each output became
          client-visible. Under [journal_io] that is the back-end proxy
          commit of the carrying region (the serving layer's ack point);
          otherwise the [Out]'s execution cycle. *)
  memory : Arch.Memory.t;  (** final architectural memory *)
  final_regs : int array array;  (** per core *)
  persist_stats : Arch.Persist.stats;
  hier_stats : Arch.Hierarchy.stats;
  stale_reads : int;  (** NVM-level loads observing non-latest data *)
}

type crash = {
  image : Arch.Persist.image;
  at_instr : int;
  at_cycle : int;
  outputs_before : int list array;
      (** I/O emitted before the failure — it already left the machine
          and must be prepended to any resumed run's streams. *)
}

type outcome = Finished of result | Crashed of crash

type session
(** A machine: a run in progress, a resumable context or a stopped run
    to {!rewind}. A result's [memory] and [profile] are the machine's
    own, not copies: they hold the run's final state until the machine
    is rewound or resumed. *)

val start :
  ?config:Arch.Config.t -> ?mode:Arch.Persist.mode -> ?journal_io:bool ->
  ?obs:Capri_obs.Obs.t -> ?check_threshold:int -> program:Program.t ->
  threads:thread_spec list -> unit -> session
(** Fresh machine: zeroed memory (plus the program's data image), cold
    caches, empty proxies. [check_threshold] makes the executor assert
    that no dynamic region exceeds the given store count (the compiler
    invariant the back-end proxy relies on). [journal_io] routes [Out]
    instructions through the durable output journal (Section 3.3's
    suggested I/O treatment): outputs become visible at region commit,
    giving exactly-once semantics across crashes.

    [obs] (default {!Capri_obs.Obs.null}) threads the observability
    bundle through the whole machine: Persist and Hierarchy counters
    register in its metrics registry, every dynamic region opens a span
    on its core's trace track (with nested boundary-stall spans in the
    synchronous modes), fences/atomics/halts/crashes emit instant
    events, and the region profiler observes each closed region's costs
    and each commit of one. A region span's begin event carries the boundary's global instruction
    index ([instr]) and the store count of the region it closed
    ([stores]); {!boundary_instrs} and {!render_timeline} read them
    back.

    [start] allocates the machine's parts, decodes and lowers, then
    {!rewind}s it: the start state is written down once, there. *)

val rewind : ?obs:Capri_obs.Obs.t -> session -> unit
(** Puts a stopped session back into the state {!start} gave it, in
    place. Stopped means finished, crashed and not resumed, or abandoned
    by {!Livelock} or by a failed threshold check (any session, in fact,
    that is not inside {!run} or {!run_reference}). Memory is cleared and
    reloaded with the program's data image, the caches are emptied and
    reset, the persist engine restarts over that image
    ({!Arch.Persist.restart}), the run's counters and profile restart
    from zero and the threads from their entries with their initial
    contexts durable. The config, mode, journaling, threshold, thread
    specs, decoded code, lowered closures and every page, cache set and
    proxy buffer the machine already has are kept. The previous run's
    result loses its [memory] and [profile] to the new run.

    [obs] (default: the session's own bundle) becomes the bundle of the
    session, its persist engine and its caches, as {!start}'s [obs]
    would. The closures were lowered for one tracer setting, so a bundle
    whose tracer's enablement differs is refused with
    [Invalid_argument]. A session that has not run since it was started
    or rewound is already in the start state: rewinding it under the
    same bundle (physically) does nothing. *)

val resume :
  compiled:Capri_compiler.Compiled.t -> image:Arch.Persist.image -> session ->
  session
(** [resume ~compiled ~image crashed] restarts [crashed]'s own machine
    from [image], the durable image its crash left, and returns
    [crashed]: memory reloaded in place from the NVM contents, the
    caches empty, the persist engine as a fresh one over [image]
    ({!Arch.Persist.restart}), the run's counters at zero, and fresh
    threads with their registers reloaded from the slot arrays,
    positioned at their resume boundaries ({!Recovery} must have applied
    recovery blocks to the image's slots first). The session keeps its
    config, mode, journaling, obs bundle, threshold, thread specs,
    decoded code and lowered closures, and no memory page it already
    has is allocated again. The journal (and its compaction cursor,
    [image.acked_base]) is carried into the restarted persist engine
    when journaling is on. A later crash of the session recovers
    through {!Arch.Persist.crash_recover} on the calling domain, like a
    crash of a {!start}ed one.

    A resume consumes its crash: [crashed] must have crashed since it
    was started or last resumed, and must descend from a {!start} of
    [compiled]'s program (the very value, compared physically), since
    the image's resume boundaries are [compiled]'s region ids. Raises
    [Invalid_argument] otherwise — on a session that never crashed, on
    a finished one, and on a second resume of the same crash. *)

val run : ?crash_at_instr:int -> ?max_steps:int -> session -> outcome
(** Executes until every thread halts, the optional crash point fires, or
    some thread exceeds [max_steps] step attempts (default 100M,
    counted per thread — conflict-fence retries included), which raises
    {!Livelock}. Once picked, a thread runs a burst until another
    thread's earlier cycle could win the pick; while nothing can
    interleave (one runnable thread, conflict fence off, budgets that
    cannot expire mid-block) it executes whole fused blocks with one
    budget check per block.

    A burst may pass its bound only with thread-local instructions
    ({!Code.thread_local}: register moves and arithmetic, checkpoint
    staging, untraced fences, jumps and branches), and only when the run
    has no [crash_at_instr], the session's tracer is off and the thread
    has used fewer than [max_steps] steps; it stops before the next
    instruction that reaches memory, the caches, the persist engine or
    the journal. Those instructions touch nothing another thread reads
    and cost one cycle each, so running them early changes no result.
    Results are exactly those of {!run_reference}. *)

val run_reference :
  ?crash_at_instr:int -> ?max_steps:int -> session -> outcome
(** The reference scheduler, over the same closures and with the same
    arguments, budget and results as {!run}: before every single
    instruction it picks the runnable thread with the smallest cycle
    count (the lowest core on ties) and steps it once — no bursts, no
    fused blocks. The differential tests ([test/test_engine.ml],
    [bench/perfsmoke.exe]) hold {!run} to it field by field: cycles,
    counters, outputs, acks, final registers and memory, persist and
    hierarchy statistics, crash images and recovered runs. *)

val program : session -> Program.t
(** The program the session was started with. *)

val positions : session -> (string * string * int * int) array
(** Per-core (function, block label, instruction index, cycle) — where
    each thread currently stands; for debugging and liveness tests. *)

val region_name : int -> string
(** A region's name from its boundary id: ["b<id>"], and ["entry"] for
    a negative id (the code before a thread's first boundary). Region
    spans, {!Livelock} and the hottest-regions table use it. *)

(** {1 The region timeline}

    Readers over a tracer that recorded one or more sessions. *)

val boundary_instrs : Capri_obs.Tracer.t -> int list
(** Sorted, deduplicated global instruction indices of every region
    boundary crossed (all cores): the [instr] argument of each region
    span's begin event. Boundary-stall spans, request-track spans and
    instants are ignored. *)

val render_timeline : ?max_rows:int -> Capri_obs.Tracer.t -> string
(** A per-core timeline table: one row per boundary crossing (cycle,
    core, boundary id, the closed region's store count, instruction
    index), one per halt and one per crash. When there are more than
    [max_rows] (default 64) rows, the middle is elided and a final
    ["… (+K more rows)"] line reports how many rows the table dropped. *)
