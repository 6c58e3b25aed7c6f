(** The Capri persistence engine: two-phase atomic stores over decoupled
    non-volatile proxy buffers (Section 5).

    Phase 1 creates an undo+redo entry per regular store in the per-core
    front-end proxy (beside the L1D), merging by line within the open
    region. Entries and the region's commit marker travel in FIFO order
    down the dedicated per-core proxy path into the back-end proxy at the
    memory controller. The region's staged register-checkpoint flushes
    travel with its commit marker, as one path item that occupies the
    path as long as one marker per flush plus the commit would. Phase 2
    runs when the commit marker arrives: redo data of valid entries is
    copied to NVM through the (persistent-domain) write queue, checkpoint
    slots and the resume record are updated, and the region's back-end
    space is freed once the writes retire.

    Dirty cache writebacks are also allowed to reach NVM
    (indirect-read-free, Section 5.1.1); the stale-read machinery of
    Section 5.3 — scanning the back-end on writeback and monitoring the
    path for one worst-case latency window — clears redo valid-bits of
    overtaken entries. As a formal backstop this model stamps every NVM
    line with the version of the data written (a writeback stuck behind
    unbounded front-end backpressure could otherwise be overtaken in ways
    the window cannot see); phase-2 writes are skipped when their data is
    older than the line's stamp. The paper's mechanisms remain the ones
    accounted and measured.

    The engine also hosts the design-space modes the benchmarks compare:
    [Naive_sync] (stall at every boundary until the region is fully
    persistent — the "up to 2x" strawman), [Undo_sync] (undo logging
    without asynchronous region persistence, Section 5.1.2's limitation),
    [Redo_nowb] (redo logging with dropped writebacks and indirect-read
    latency on deep loads, Section 5.1.1's problem), and [Volatile] (no
    persistence; the normalization baseline). *)

type mode = Capri | Naive_sync | Undo_sync | Redo_nowb | Volatile

val mode_name : mode -> string
(** Canonical lower-case name ("capri", "naive-sync", ...), used as the
    ["mode"] metric label. *)

val mode_of_string : string -> mode option
(** Inverse of {!mode_name}; underscores are accepted for dashes. *)

val all_modes : mode list
(** The five design points, in the fixed order reports list them. *)

val crash_recoverable : mode -> bool
(** Every mode but [Volatile], which keeps nothing across a crash. *)

(** Snapshot of the engine's counters, rebuilt by {!stats} on each call.
    The live cells are registry counters (named [persist_*], labelled
    with the mode) so a profiled run exports them without copying;
    mutating a returned snapshot has no effect on the engine. The NVM
    accounting invariant
    [nvm_line_writes = nvm_writes_wb + nvm_writes_redo + nvm_writes_slot]
    holds structurally: every line write is categorized at the single
    write choke point. *)
type stats = {
  mutable entries_created : int;
  mutable entries_merged : int;
  mutable commits : int;
  mutable boundaries_elided : int;
  mutable ckpt_flushes : int;
  mutable redo_writes : int;
  mutable redo_skipped_invalid : int;
  mutable redo_skipped_stale : int;
  mutable scan_invalidations : int;
  mutable window_invalidations : int;
  mutable store_stall_cycles : int;
  mutable boundary_stall_cycles : int;
  mutable nvm_line_writes : int;
  mutable nvm_writes_wb : int;  (** line writes from dirty writebacks *)
  mutable nvm_writes_redo : int;  (** line writes from phase-2 redo copies *)
  mutable nvm_writes_slot : int;
      (** line writes to the checkpoint slot arrays *)
  mutable compactions : int;
      (** journal checkpoint-cursor flips (see {!journal_tail}) *)
  mutable journal_truncated : int;
      (** journal entries compacted out of the durable journal *)
}

type resume =
  | Resume of { boundary : int; sp : int }
  | Done
  | Never_started

type image = {
  nvm : Memory.t;  (** the durable memory image after recovery *)
  resume : resume array;  (** per core *)
  slots : int array array;  (** per core, mutable: recovery blocks update *)
  journal : int list array;
      (** per core: the committed I/O journal (see {!on_out}) *)
  acked : (int * int) list array;
      (** per core: [(output, cycle)] pairs — the journal annotated with
          the cycle each output's region committed at the back-end
          proxy. The serving layer treats that commit as the point a
          request is acknowledged to the client. *)
  acked_base : int array;
      (** per core: the durable checkpoint cursor — how many leading
          entries of [journal]/[acked] compaction has truncated from the
          {e durable} journal. The lists above stay complete (they are
          the ledger of what clients were actually told, which the
          oracles check); only the tail past the cursor survives in NVM
          and is re-served on restart, so restart cost is bounded by the
          tail, not by history. *)
  replayed : int array;
      (** per core: redo records re-applied plus undo records rolled
          back by this recovery — the per-core log-replay work the
          restart-time model charges (as a max over cores, since each
          core replays its own log in parallel). *)
}

type t

val create : ?obs:Capri_obs.Obs.t -> Config.t -> mode:mode -> t
(** [obs] defaults to {!Capri_obs.Obs.null}: counters still count (the
    {!stats} view works regardless) but nothing is registered or traced.
    With an enabled tracer the engine additionally emits a proxy-track
    instant per region commit. *)

val mode : t -> mode

val set_commit_hook :
  t -> (row:int -> latency:int -> nvm_lines:int -> unit) -> unit
(** [f ~row ~latency ~nvm_lines] runs at each commit of a region that
    {!on_boundary} or {!on_halt} closed with [row >= 0]: the commit
    marker carries [row] and the close cycle, so the region's tally row
    is reached without a table. [latency] is the commit cycle minus the
    close cycle, clamped at zero (a marker can land before its close);
    [nvm_lines] counts the commit's entry and checkpoint-slot line
    writes. The hook survives {!restart}; the default does nothing. *)

val stats : t -> stats

val init_slots :
  t -> core:int -> slots:int array -> resume_boundary:int option ->
  sp:int -> unit
(** Loader setup: durably record a thread's initial register context and
    its entry boundary so a crash inside the first region can restore the
    starting state (the paper's loader-written initial checkpoint). *)

val seed_core : t -> core:int -> slots:int array -> resume:resume -> unit
(** Restart setup after recovery: install the recovered slot array and
    resume record for a core in a fresh or {!restart}ed engine. *)

val fence_active : t -> bool
(** Whether {!store_conflict} can ever return true under this engine's
    configuration and mode — lets the executor skip the per-store fence
    probe (line/mask computation included) entirely when not. *)

val store_conflict :
  t -> core:int -> cycle:int -> line:int -> mask:int -> bool
(** Cross-core conflict fence (our extension closing the paper's open
    multi-core recovery question): true while another core holds
    not-yet-committed entries for the line. The core must retry the store
    later — otherwise a committed region's redo data could embed another
    core's uncommitted value, which a post-crash rollback would clobber
    (the barrier-counter anomaly). Properly synchronized programs hit this
    only around locks/barriers, for roughly a commit latency. Conflicts
    are word-granular ([mask] = bit per word offset): undo/redo entries
    carry word masks and recovery applies them word-selectively, so
    false sharing of a line across cores needs no fence at all. *)

val on_store_word :
  t -> core:int -> cycle:int -> line:int -> mask:int -> word:int ->
  value:int -> old:int -> version:int -> memory:Memory.t -> int
(** Phase-1 entry creation or merge for one stored word; returns stall
    cycles (front-end proxy full). The engine is told which word of
    [line] changed ([word], with [mask] its single-bit line mask), the
    [value] written and the [old] value it replaced; [memory] is the
    architectural memory {e after} the store. A merge into the open
    region's front-resident entry is a single in-place word update (the
    entry's unmasked words are unobservable: phase 2 and recovery apply
    the mask), and entry creation copies the line from [memory] into the
    core's entry slab. Neither allocates. *)

val on_ckpt : t -> core:int -> slot:int -> value:int -> unit
(** Stage into the register-file storage (merged per slot per region). *)

val on_out : t -> core:int -> value:int -> unit
(** Journaled I/O (our implementation of the paper's Section 3.3
    suggestion): the output stages with the open region and becomes
    externally visible only at the region's commit, giving exactly-once
    output semantics across crashes. *)

val journal : t -> core:int -> int list
(** Committed journal contents, in emission order. *)

val journal_entries : t -> core:int -> (int * int) list
(** [(output, commit cycle)] pairs in emission order; entries carried in
    by {!seed_journal} report cycle 0. *)

val journal_tail : t -> core:int -> int
(** Entries still in the durable journal — what a restart would
    re-serve. Compaction ({!Config.t.compact_interval}) truncates the
    journal's leading entries by flipping a durable checkpoint cursor
    past them, so the tail is bounded by the compaction interval when
    compaction is on and grows with history when it is off. {!journal}
    still returns the full ledger. *)

val seed_journal : t -> core:int -> ?base:int -> outs:int list -> unit -> unit
(** Restart setup: carry a recovered journal into a fresh or {!restart}ed
    engine.
    [base] (default 0) restores the checkpoint cursor recorded in the
    crash image's [acked_base], so compaction state survives restarts. *)

val on_boundary :
  t -> core:int -> cycle:int -> boundary:int -> sp:int -> row:int -> int
(** Commit the open region, open the next; returns stall cycles (0 in
    Capri mode — asynchronous region persistence). [row] is the closed
    region's tally row for the commit hook, [-1] for none. *)

val on_writeback :
  t -> cycle:int -> line:int -> data:int array -> version:int -> unit
(** A dirty line left the volatile domain (DRAM-cache eviction or final
    flush). [data] is read during the call only, so callers may pass a
    reused buffer. *)

val install_image : t -> Memory.t -> unit
(** Loader/restart path: place every written line of the initial (or
    recovered) durable image into NVM directly, at version 0, in every
    mode. Unlike {!on_writeback} this is never dropped in [Redo_nowb]
    mode, where ordinary dirty writebacks are discarded by design. *)

val on_halt : t -> core:int -> cycle:int -> row:int -> int
(** Final implicit boundary + full drain; returns stall cycles. [row] as
    for {!on_boundary}. *)

val load_extra_latency : t -> Hierarchy.level -> int
(** Indirect-read penalty ([Redo_nowb] mode only). *)

val advance : t -> cycle:int -> unit
(** Process internal events up to the given time. *)

val nvm_line : t -> int -> int array
(** A copy of the current durable contents of a line. *)

val nvm_line_equal : t -> Memory.t -> int -> bool
(** Whether a line's durable contents equal the given memory's, compared
    in place (the executor's stale-read oracle). *)

val crash_recover : t -> cycle:int -> image
(** Power failure at [cycle]: volatile state dies, battery-backed proxy
    contents drain, and the Section 5.4 protocol rebuilds the durable
    image — committed regions redone in order, the interrupted region
    undone, slots and resume records as of the last committed boundary.
    Runs on the calling domain: one walk per core, in core order, applies
    each core's surviving proxy contents as it finds them. A core holds
    at most its front proxy and one store-threshold-sized back-end
    region, so a restart drains a few items per core, far less than the
    cost of spawning a domain. *)

val restart : ?obs:Capri_obs.Obs.t -> t -> Memory.t -> unit
(** [restart t image]: power-on over a recovered durable image, in place.
    Leaves [t] as {!create} followed by {!install_image} [image] would
    build it: proxy queues, staged slots, journals, resume records, slot
    arrays, the write queue, the monitoring window and the event clock
    back to their start values; NVM holding exactly [image]'s lines, each
    written once and every word of them stamped 0; the two install
    counts ([nvm_line_writes], [nvm_writes_wb]) counted. [obs] (default:
    the engine's own bundle) becomes the engine's bundle, and the
    counters are what registering them in it the way {!create} does would
    return: with the null bundle they restart at zero, with an enabled
    registry they keep accumulating. They are registered anew only when
    the registry changed; otherwise the cells are kept (zeroed in place
    under the null registry). Allocates none of the queues, slabs and
    pages [t] already has. *)

val fault_drop_undo : bool Atomic.t
(** Test-only fault injection: while [true], {!crash_recover} skips the
    undo pass over interrupted regions, deliberately breaking failure
    atomicity. Exists so the crash-consistency fuzzer's oracle can be
    shown to catch a real recovery bug (it must not pass vacuously).
    Never set by the library itself; tests arm it and must reset it. *)

val fault_tear_compaction : bool Atomic.t
(** Test-only fault injection: while [true], journal compaction reclaims
    the truncated entries {e before} the checkpoint cursor flips — the
    torn ordering the cursor protocol rules out. Acked outputs vanish
    from the durable record, so recovered acked streams develop a hole
    the Sla prefix oracle must report. Tests arm it and must reset it. *)
