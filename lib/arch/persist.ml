module Metrics = Capri_obs.Metrics
module Obs = Capri_obs.Obs

type mode = Capri | Naive_sync | Undo_sync | Redo_nowb | Volatile

let mode_name = function
  | Capri -> "capri"
  | Naive_sync -> "naive-sync"
  | Undo_sync -> "undo-sync"
  | Redo_nowb -> "redo-nowb"
  | Volatile -> "volatile"

let all_modes = [ Capri; Naive_sync; Undo_sync; Redo_nowb; Volatile ]

let mode_of_string s =
  let s = String.map (function '_' -> '-' | c -> c) s in
  List.find_opt (fun m -> mode_name m = s) all_modes

let crash_recoverable m = m <> Volatile

(* The public snapshot view; the live counters are registry cells (see
   [counters] below) so a profiled run exports them without a copy. *)
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
  mutable nvm_writes_wb : int;  (* line writes from dirty writebacks *)
  mutable nvm_writes_redo : int;  (* line writes from phase-2 redo copies *)
  mutable nvm_writes_slot : int;  (* line writes to the checkpoint arrays *)
  mutable compactions : int;  (* journal checkpoint-cursor flips *)
  mutable journal_truncated : int;  (* journal entries compacted away *)
}

(* The live counters, one registry cell per stats field. Incrementing a
   cell costs the same field write the old mutable record cost; with the
   null registry the cells simply aren't interned anywhere. Every NVM
   line write is categorized at the single choke point ({!nvm_write}'s
   [kind]), which is what keeps the accounting invariant
   [nvm_line_writes = wb + redo + slot] structural rather than hoped-for. *)
type counters = {
  c_entries_created : Metrics.Counter.t;
  c_entries_merged : Metrics.Counter.t;
  c_commits : Metrics.Counter.t;
  c_boundaries_elided : Metrics.Counter.t;
  c_ckpt_flushes : Metrics.Counter.t;
  c_redo_writes : Metrics.Counter.t;
  c_redo_skipped_invalid : Metrics.Counter.t;
  c_redo_skipped_stale : Metrics.Counter.t;
  c_scan_invalidations : Metrics.Counter.t;
  c_window_invalidations : Metrics.Counter.t;
  c_store_stall_cycles : Metrics.Counter.t;
  c_boundary_stall_cycles : Metrics.Counter.t;
  c_nvm_line_writes : Metrics.Counter.t;
  c_nvm_writes_wb : Metrics.Counter.t;
  c_nvm_writes_redo : Metrics.Counter.t;
  c_nvm_writes_slot : Metrics.Counter.t;
  c_compactions : Metrics.Counter.t;
  c_journal_truncated : Metrics.Counter.t;
}

(* Registered by [create], and by [restart] when the registry changed:
   the series names are literals, so a registration allocates no
   string. *)
let mk_counters metrics ~mode =
  let labels = [ ("mode", mode_name mode) ] in
  let c name = Metrics.counter ~labels metrics name in
  {
    c_entries_created = c "persist_entries_created";
    c_entries_merged = c "persist_entries_merged";
    c_commits = c "persist_commits";
    c_boundaries_elided = c "persist_boundaries_elided";
    c_ckpt_flushes = c "persist_ckpt_flushes";
    c_redo_writes = c "persist_redo_writes";
    c_redo_skipped_invalid = c "persist_redo_skipped_invalid";
    c_redo_skipped_stale = c "persist_redo_skipped_stale";
    c_scan_invalidations = c "persist_scan_invalidations";
    c_window_invalidations = c "persist_window_invalidations";
    c_store_stall_cycles = c "persist_store_stall_cycles";
    c_boundary_stall_cycles = c "persist_boundary_stall_cycles";
    c_nvm_line_writes = c "persist_nvm_line_writes";
    c_nvm_writes_wb = c "persist_nvm_writes_wb";
    c_nvm_writes_redo = c "persist_nvm_writes_redo";
    c_nvm_writes_slot = c "persist_nvm_writes_slot";
    c_compactions = c "persist_compactions";
    c_journal_truncated = c "persist_journal_truncated";
  }

(* The fresh cells a null-registry registration would hand out, made in
   place. *)
let zero_counters c =
  let z cell = Metrics.Counter.set cell 0 in
  z c.c_entries_created;
  z c.c_entries_merged;
  z c.c_commits;
  z c.c_boundaries_elided;
  z c.c_ckpt_flushes;
  z c.c_redo_writes;
  z c.c_redo_skipped_invalid;
  z c.c_redo_skipped_stale;
  z c.c_scan_invalidations;
  z c.c_window_invalidations;
  z c.c_store_stall_cycles;
  z c.c_boundary_stall_cycles;
  z c.c_nvm_line_writes;
  z c.c_nvm_writes_wb;
  z c.c_nvm_writes_redo;
  z c.c_nvm_writes_slot;
  z c.c_compactions;
  z c.c_journal_truncated

type resume =
  | Resume of { boundary : int; sp : int }
  | Done
  | Never_started

type image = {
  nvm : Memory.t;
  resume : resume array;
  slots : int array array;
  journal : int list array;
      (* per core: committed I/O journal (Section 3.3's suggested
         exactly-once treatment of outputs), in emission order *)
  acked : (int * int) list array;
      (* per core: the same journal with the cycle each output's region
         committed — what the serving layer calls an acknowledged
         request *)
  acked_base : int array;
      (* per core: the durable checkpoint cursor — how many leading
         journal entries compaction has truncated from the durable
         journal. [journal]/[acked] above remain the full ledger (the
         record of what clients were told, which the oracle checks);
         only the tail past the cursor still exists durably and is
         replayed on restart. *)
  replayed : int array;
      (* per core: redo records re-applied plus undo records rolled
         back by this recovery — the log-replay work the restart model
         charges per core *)
}

let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b
let full_mask = (1 lsl Config.line_words) - 1

(* The proxy-path event plumbing. The original implementation kept one
   global binary heap of (time, serial, event) for both item arrivals and
   back-end space releases. Every event class is in fact monotone in
   time at its source — per-core drains happen in nondecreasing time
   order, so per-core arrivals (drain + constant latency) do too, and
   space releases are pushed at max(now, nvm_wq_free), both nondecreasing
   — so a ring queue per source replaces the heap: O(1) pushes and pops,
   no per-event tuple or sift, and "next event" is a min over ring heads.
   A global serial stamped at push keeps the heap's exact total order for
   equal-time events across sources. *)
module Ring = struct
  (* Capacity is always a power of two, so index wraparound is a bit
     mask, not a division — pushes and pops run once per proxy-path item. *)
  type t = {
    mutable times : int array;
    mutable serials : int array;
    mutable vals : int array;
    mutable mask : int;  (* capacity - 1 *)
    mutable head : int;
    mutable len : int;
  }

  let create () =
    { times = Array.make 16 0; serials = Array.make 16 0;
      vals = Array.make 16 0; mask = 15; head = 0; len = 0 }

  let grow r =
    let cap = Array.length r.times in
    let nt = Array.make (2 * cap) 0
    and ns = Array.make (2 * cap) 0
    and nv = Array.make (2 * cap) 0 in
    for i = 0 to r.len - 1 do
      let j = (r.head + i) land r.mask in
      nt.(i) <- r.times.(j);
      ns.(i) <- r.serials.(j);
      nv.(i) <- r.vals.(j)
    done;
    r.times <- nt;
    r.serials <- ns;
    r.vals <- nv;
    r.mask <- (2 * cap) - 1;
    r.head <- 0

  let[@inline] push r time serial v =
    if r.len > r.mask then grow r;
    let i = (r.head + r.len) land r.mask in
    Array.unsafe_set r.times i time;
    Array.unsafe_set r.serials i serial;
    Array.unsafe_set r.vals i v;
    r.len <- r.len + 1

  let[@inline] top_time r =
    if r.len = 0 then max_int else Array.unsafe_get r.times r.head

  let[@inline] top_serial r =
    if r.len = 0 then max_int else Array.unsafe_get r.serials r.head

  let[@inline] pop r =
    let v = Array.unsafe_get r.vals r.head in
    r.head <- (r.head + 1) land r.mask;
    r.len <- r.len - 1;
    v

  (* The [i]-th value from the head, without popping. *)
  let get r i = r.vals.((r.head + i) land r.mask)

  let clear r =
    r.head <- 0;
    r.len <- 0
end

(* Untimed int FIFO on a growable circular buffer: the front proxy queue
   and the per-core payload queues. *)
module Fifo = struct
  type t = {
    mutable vals : int array;
    mutable mask : int;  (* capacity - 1; capacity is a power of two *)
    mutable head : int;
    mutable len : int;
  }

  let create () = { vals = Array.make 16 0; mask = 15; head = 0; len = 0 }

  let grow q =
    let cap = Array.length q.vals in
    let nv = Array.make (2 * cap) 0 in
    for i = 0 to q.len - 1 do
      nv.(i) <- q.vals.((q.head + i) land q.mask)
    done;
    q.vals <- nv;
    q.mask <- (2 * cap) - 1;
    q.head <- 0

  let[@inline] push q v =
    if q.len > q.mask then grow q;
    Array.unsafe_set q.vals ((q.head + q.len) land q.mask) v;
    q.len <- q.len + 1

  let[@inline] is_empty q = q.len = 0
  let[@inline] peek q = Array.unsafe_get q.vals q.head

  let[@inline] pop q =
    let v = Array.unsafe_get q.vals q.head in
    q.head <- (q.head + 1) land q.mask;
    q.len <- q.len - 1;
    v

  let get q i = q.vals.((q.head + i) land q.mask)

  let clear q =
    q.head <- 0;
    q.len <- 0
end

(* Undo/redo entries live in a per-core slab: a handle indexes parallel
   arrays, and [words] holds each entry's undo line then its redo line.
   Entries are created on the store path, freed by their region's commit
   or by crash recovery, and never copied. The front proxy stalls the
   store path at [front_proxy_entries] and the back end refuses data
   beyond [back_proxy_entries], so at most their sum is live; the slab
   grows by doubling up to that. *)
module Slab = struct
  type t = {
    mutable line : int array;
    mutable mask : int array;  (* bit per stored word offset in the line *)
    mutable version : int array;
    mutable valid : bool array;
    mutable seq : int array;  (* dynamic region sequence number *)
    mutable words : int array;
    mutable free : int array;  (* stack of free handles *)
    mutable free_n : int;
    limit : int;
  }

  let entry_words = 2 * Config.line_words
  let[@inline] undo_off h = h * entry_words
  let[@inline] redo_off h = (h * entry_words) + Config.line_words

  let create ~limit =
    let cap = 4 in
    {
      line = Array.make cap 0;
      mask = Array.make cap 0;
      version = Array.make cap 0;
      valid = Array.make cap false;
      seq = Array.make cap 0;
      words = Array.make (cap * entry_words) 0;
      free = Array.init cap (fun i -> cap - 1 - i);
      free_n = cap;
      limit;
    }

  let capacity s = Array.length s.line

  let grow s =
    let cap = capacity s in
    let ext a z =
      let b = Array.make (2 * Array.length a) z in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    s.line <- ext s.line 0;
    s.mask <- ext s.mask 0;
    s.version <- ext s.version 0;
    s.valid <- ext s.valid false;
    s.seq <- ext s.seq 0;
    s.words <- ext s.words 0;
    s.free <- Array.make (2 * cap) 0;
    for i = 0 to cap - 1 do
      s.free.(i) <- (2 * cap) - 1 - i
    done;
    s.free_n <- cap

  let alloc s =
    if s.free_n = 0 then grow s;
    s.free_n <- s.free_n - 1;
    assert (capacity s - s.free_n <= s.limit);
    s.free.(s.free_n)

  let release s h =
    s.free.(s.free_n) <- h;
    s.free_n <- s.free_n + 1

  let reset s =
    let cap = capacity s in
    for i = 0 to cap - 1 do
      s.free.(i) <- cap - 1 - i
    done;
    s.free_n <- cap
end

(* A path item is an int: a Data item is its entry's handle, and the
   commit marker of a region with [k] staged checkpoint slots is
   [-1 - k]. The marker carries the slots: its payload waits in the
   core's [cmq] in push order — seq, resume boundary, sp, #outs, the
   executor's tally row of the closed region and its close cycle, then
   the k (slot, value) pairs in staged order. A core's stream is FIFO
   from the front queue to the back end, so markers meet their payloads
   in order. *)
let[@inline] commit_item k = -1 - k
let[@inline] commit_slots item = -1 - item

(* The resume record as ints; {!resume} is built only where it is read. *)
let never_started = 0
let resume_at = 1
let finished = 2

type core_state = {
  id : int;
  slab : Slab.t;
  front : Fifo.t;
  mutable front_data : int;  (* Data items currently in the front queue *)
  (* line -> mergeable front entry, as a bounded linear map: the front
     queue holds at most [front_proxy_entries] (= 32) data entries — the
     store path stalls before exceeding it — so a cache-line scan of the
     line numbers beats hashing on every store. At most one binding per
     line; [fi_n] live. *)
  fi_lines : int array;
  fi_handles : int array;
  mutable fi_n : int;
  staged_order : int array;  (* slots in first-store order; staged_n live *)
  mutable staged_n : int;
  staged_val : int array;  (* per slot; meaningful while staged_mark *)
  staged_mark : bool array;
  cmq : Fifo.t;
  outq : Fifo.t;
      (* I/O journal values in emission order: committed regions' outputs
         still on the path, then the open region's [out_open] *)
  mutable out_open : int;
  mutable journal : (int * int) list;
      (* committed (output, commit cycle), reversed: the cycle stamps when
         the region carrying the output reached phase 2 — the serving
         layer's ack time *)
  mutable journal_len : int;  (* List.length journal, maintained *)
  mutable journal_base : int;
      (* durable checkpoint cursor: the first [journal_base] entries (in
         emission order) have been compacted out of the durable journal —
         their regions' effects were already in NVM when they committed,
         so restart no longer replays them. The ledger above keeps them
         for the oracle. Flipping this one word IS the (failure-atomic)
         truncation; see [compact]. *)
  mutable open_seq : int;
  mutable open_entries : int;  (* data entries created in the open region *)
  mutable next_drain : int;
  arrivals : Ring.t;  (* in flight on the proxy path, FIFO *)
  (* The back end's one open region: a core's items arrive in order and
     each Commit closes the region whose items precede it, so the back
     end never holds more than the region being gathered. *)
  mutable back : int array;  (* handles, in arrival order *)
  mutable back_n : int;
  mutable back_used : int;
      (* back-end entries not yet released: delivered or in flight *)
  mutable res_kind : int;  (* never_started | resume_at | finished *)
  mutable res_boundary : int;
  mutable res_sp : int;
  slot_array : int array;
}

type wait = Front_slot | Drained

type t = {
  config : Config.t;
  mode : mode;
  cores : core_state array;
  frees : Ring.t;
      (* back-end space releases, each [n * cores + core] for n entries *)
  mutable eserial : int;  (* global event order stamp across all rings *)
  marker_gap : int;
      (* path occupancy of a marker: a checkpoint slot or a commit is a
         dozen bytes, a data entry two cache lines *)
  nvm : Memory.t;  (* durable contents *)
  stamps : Line_pages.t;
      (* per-word version stamps of stored NVM data ([-1] = never
         written). The age guard must match the word granularity of
         masked redo/undo application. *)
  mutable nvm_wq_free : int;  (* write-queue service timeline *)
  mutable wake : int;
      (* earliest cycle at which any internal event (ring entry or
         drainable front-queue head) is due; [advance] is a no-op before
         then. May be conservatively early — every mutation outside
         [advance] that could schedule work lowers it — but never late. *)
  (* Monitoring window: recent writebacks as (line, version, controller
     time), oldest first, pruned in place. *)
  mutable wb_line : int array;
  mutable wb_version : int array;
  mutable wb_time : int array;
  mutable wb_n : int;
  pending : Line_pages.t;
      (* per line, per core: count of not-yet-committed entries and the
         OR of their word masks; drives the cross-core conflict fence
         (see store_conflict) *)
  mutable c : counters;
      (* registered in [obs]'s registry; [restart] registers anew only
         when the registry changes *)
  mutable obs : Obs.t;  (* rebound by [restart ~obs] *)
  mutable commit_hook : row:int -> latency:int -> nvm_lines:int -> unit;
}

(* Volatile proxy state after the drain: every queue empty, every
   handle free. *)
let clear_core cs =
  Slab.reset cs.slab;
  Fifo.clear cs.front;
  Fifo.clear cs.cmq;
  Fifo.clear cs.outq;
  Ring.clear cs.arrivals;
  cs.front_data <- 0;
  cs.fi_n <- 0;
  cs.out_open <- 0;
  cs.back_n <- 0;
  cs.back_used <- 0

(* The start values of everything but NVM, its stamps and the counters.
   [create] sets them on its fresh parts and [restart] on used ones, so
   both start from this one statement of them. *)
let reset_core cs =
  clear_core cs;
  let n = Array.length cs.staged_mark in
  Array.fill cs.staged_order 0 n 0;
  cs.staged_n <- 0;
  Array.fill cs.staged_val 0 n 0;
  Array.fill cs.staged_mark 0 n false;
  cs.journal <- [];
  cs.journal_len <- 0;
  cs.journal_base <- 0;
  cs.open_seq <- 0;
  cs.open_entries <- 0;
  cs.next_drain <- 0;
  cs.res_kind <- never_started;
  cs.res_boundary <- 0;
  cs.res_sp <- 0;
  Array.fill cs.slot_array 0 (Array.length cs.slot_array) 0

let reset_volatile t =
  Array.iter reset_core t.cores;
  Ring.clear t.frees;
  t.eserial <- 0;
  t.nvm_wq_free <- 0;
  t.wake <- 0;
  t.wb_n <- 0;
  Line_pages.reset t.pending

let create ?(obs = Obs.null) config ~mode =
  let ncores = config.Config.cores in
  let fi_cap = config.Config.front_proxy_entries + 1 in
  let t =
    {
      config;
      mode;
      cores =
        Array.init ncores (fun id ->
            {
              id;
              slab =
                Slab.create
                  ~limit:
                    (config.Config.front_proxy_entries
                    + config.Config.back_proxy_entries);
              front = Fifo.create ();
              front_data = 0;
              fi_lines = Array.make fi_cap min_int;
              fi_handles = Array.make fi_cap (-1);
              fi_n = 0;
              staged_order = Array.make Capri_ir.Reg.count 0;
              staged_n = 0;
              staged_val = Array.make Capri_ir.Reg.count 0;
              staged_mark = Array.make Capri_ir.Reg.count false;
              cmq = Fifo.create ();
              outq = Fifo.create ();
              out_open = 0;
              journal = [];
              journal_len = 0;
              journal_base = 0;
              open_seq = 0;
              open_entries = 0;
              next_drain = 0;
              arrivals = Ring.create ();
              back = Array.make 8 0;
              back_n = 0;
              back_used = 0;
              res_kind = never_started;
              res_boundary = 0;
              res_sp = 0;
              slot_array = Array.make Capri_ir.Reg.count 0;
            });
      frees = Ring.create ();
      eserial = 0;
      marker_gap = imax 1 (config.Config.proxy_path_gap / 4);
      nvm = Memory.create ();
      stamps = Line_pages.create ~width:Config.line_words ~init:(-1);
      nvm_wq_free = 0;
      wake = 0;
      wb_line = [||];
      wb_version = [||];
      wb_time = [||];
      wb_n = 0;
      pending = Line_pages.create ~width:(2 * ncores) ~init:0;
      c = mk_counters obs.Obs.metrics ~mode;
      obs;
      commit_hook = (fun ~row:_ ~latency:_ ~nvm_lines:_ -> ());
    }
  in
  reset_volatile t;
  t

let mode t = t.mode
let set_commit_hook t f = t.commit_hook <- f

(* Thin snapshot over the registry cells: the record the callers (tests,
   bench tables) always read, rebuilt on demand. *)
let stats t =
  let v = Metrics.Counter.value in
  {
    entries_created = v t.c.c_entries_created;
    entries_merged = v t.c.c_entries_merged;
    commits = v t.c.c_commits;
    boundaries_elided = v t.c.c_boundaries_elided;
    ckpt_flushes = v t.c.c_ckpt_flushes;
    redo_writes = v t.c.c_redo_writes;
    redo_skipped_invalid = v t.c.c_redo_skipped_invalid;
    redo_skipped_stale = v t.c.c_redo_skipped_stale;
    scan_invalidations = v t.c.c_scan_invalidations;
    window_invalidations = v t.c.c_window_invalidations;
    store_stall_cycles = v t.c.c_store_stall_cycles;
    boundary_stall_cycles = v t.c.c_boundary_stall_cycles;
    nvm_line_writes = v t.c.c_nvm_line_writes;
    nvm_writes_wb = v t.c.c_nvm_writes_wb;
    nvm_writes_redo = v t.c.c_nvm_writes_redo;
    nvm_writes_slot = v t.c.c_nvm_writes_slot;
    compactions = v t.c.c_compactions;
    journal_truncated = v t.c.c_journal_truncated;
  }

(* The resume record's committed form: [boundary >= 0] resumes there,
   a negative boundary (the halt's) marks the core done. *)
let set_resume cs ~boundary ~sp =
  if boundary >= 0 then begin
    cs.res_kind <- resume_at;
    cs.res_boundary <- boundary;
    cs.res_sp <- sp
  end
  else cs.res_kind <- finished

let resume_of cs =
  if cs.res_kind = resume_at then
    Resume { boundary = cs.res_boundary; sp = cs.res_sp }
  else if cs.res_kind = finished then Done
  else Never_started

let init_slots t ~core ~slots ~resume_boundary ~sp =
  let cs = t.cores.(core) in
  Array.blit slots 0 cs.slot_array 0 (Array.length cs.slot_array);
  match resume_boundary with
  | Some boundary ->
    cs.res_kind <- resume_at;
    cs.res_boundary <- boundary;
    cs.res_sp <- sp
  | None -> cs.res_kind <- never_started

let seed_core t ~core ~slots ~resume =
  let cs = t.cores.(core) in
  Array.blit slots 0 cs.slot_array 0 (Array.length cs.slot_array);
  match resume with
  | Resume { boundary; sp } ->
    cs.res_kind <- resume_at;
    cs.res_boundary <- boundary;
    cs.res_sp <- sp
  | Done -> cs.res_kind <- finished
  | Never_started -> cs.res_kind <- never_started

(* Word-granular aged write: each masked word of the line at
   [data.(off)].. lands only if its data is at least as new as what that
   word already holds. [kind] attributes the line write to one of the
   three traffic categories at the single choke point, so
   nvm_line_writes = wb + redo + slot holds by construction. *)
let nvm_write t ~kind ~line ~data ~off ~mask ~version =
  let stamps = Line_pages.page t.stamps line in
  let base = Line_pages.offset t.stamps line in
  Metrics.Counter.inc t.c.c_nvm_line_writes;
  Metrics.Counter.inc
    (match kind with
    | `Wb -> t.c.c_nvm_writes_wb
    | `Redo -> t.c.c_nvm_writes_redo
    | `Slot -> t.c.c_nvm_writes_slot);
  let write_mask = ref 0 in
  for o = 0 to Config.line_words - 1 do
    if mask land (1 lsl o) <> 0 && version >= stamps.(base + o) then begin
      write_mask := !write_mask lor (1 lsl o);
      stamps.(base + o) <- version
    end
  done;
  if !write_mask <> 0 then begin
    Memory.write_line_masked_from t.nvm line data off !write_mask;
    true
  end
  else begin
    Metrics.Counter.inc t.c.c_redo_skipped_stale;
    false
  end

let nvm_line t line = Memory.line_snapshot t.nvm line
let nvm_line_equal t memory line = Memory.line_equal t.nvm memory line

(* Loader/restart path: install the initial (or recovered) durable image
   directly, regardless of mode. Routing this through {!on_writeback}
   would silently drop it in [Redo_nowb] mode — whose writeback handler
   discards dirty lines by design — leaving the data segment non-durable
   before the first committed region (lost by a crash at instruction 0;
   found by the fuzzer). *)
let install_image t memory =
  Memory.iter_line_data memory (fun line data off ->
      ignore
        (nvm_write t ~kind:`Wb ~line ~data ~off ~mask:full_mask ~version:0))

(* The engine [create] and then [install_image] build, made in place:
   the queues, slabs, pages and buffers already allocated are kept. Only
   lines NVM holds carry stamps, so resetting theirs to [create]'s -1 and
   clearing NVM leaves the stamps and NVM of a fresh engine. The
   counters are what registering them again would return: an enabled
   registry's interned cells as they stand, the null registry's at
   zero. *)
let restart ?obs t image =
  let metrics = t.obs.Obs.metrics in
  (match obs with Some obs -> t.obs <- obs | None -> ());
  reset_volatile t;
  if t.obs.Obs.metrics != metrics then
    t.c <- mk_counters t.obs.Obs.metrics ~mode:t.mode
  else if not (Metrics.enabled metrics) then zero_counters t.c;
  Memory.iter_line_data t.nvm (fun line _ _ ->
      Array.fill
        (Line_pages.page t.stamps line)
        (Line_pages.offset t.stamps line)
        Config.line_words (-1));
  Memory.clear t.nvm;
  install_image t image

(* ---------------- cross-core conflict fence ---------------- *)

(* Per line and core: how many uncommitted entries touch it, and the OR
   of their word masks. The mask clears when the count drops to zero —
   slightly conservative when several of a core's regions overlap on a
   line, never unsound. The table's only reader is [store_conflict],
   which is a no-op unless the fence is configured on — so with the
   fence off (the paper's hardware model, and every timing experiment)
   the per-store bookkeeping is skipped entirely. *)
let pending_inc t ~core ~line ~mask =
  if t.config.Config.conflict_fence then begin
    let a = Line_pages.page t.pending line in
    let i = Line_pages.offset t.pending line + (2 * core) in
    a.(i) <- a.(i) + 1;
    a.(i + 1) <- a.(i + 1) lor mask
  end

let pending_add_mask t ~core ~line ~mask =
  if t.config.Config.conflict_fence then begin
    let a = Line_pages.page t.pending line in
    let i = Line_pages.offset t.pending line + (2 * core) in
    a.(i + 1) <- a.(i + 1) lor mask
  end

let pending_dec t ~core ~line =
  if t.config.Config.conflict_fence then begin
    let a = Line_pages.page t.pending line in
    let i = Line_pages.offset t.pending line + (2 * core) in
    a.(i) <- imax 0 (a.(i) - 1);
    if a.(i) = 0 then a.(i + 1) <- 0
  end

(* Front-index linear map (see [core_state.fi_lines]): [fi_find] returns
   the bound handle or -1. *)
let rec fi_scan cs line i =
  if i >= cs.fi_n then -1
  else if Array.unsafe_get cs.fi_lines i = line then i
  else fi_scan cs line (i + 1)

let[@inline] fi_find cs line =
  let i = fi_scan cs line 0 in
  if i < 0 then -1 else Array.unsafe_get cs.fi_handles i

(* Bind [line -> h], replacing any existing binding for the line (the
   replaced entry is necessarily a stale one from an earlier region). *)
let fi_bind cs line h =
  let i = fi_scan cs line 0 in
  if i >= 0 then cs.fi_handles.(i) <- h
  else begin
    cs.fi_lines.(cs.fi_n) <- line;
    cs.fi_handles.(cs.fi_n) <- h;
    cs.fi_n <- cs.fi_n + 1
  end

(* Remove the binding for [h]'s line iff it is [h] itself. *)
let fi_unbind cs h =
  let i = fi_scan cs cs.slab.Slab.line.(h) 0 in
  if i >= 0 && Array.unsafe_get cs.fi_handles i = h then begin
    cs.fi_n <- cs.fi_n - 1;
    cs.fi_lines.(i) <- cs.fi_lines.(cs.fi_n);
    cs.fi_handles.(i) <- cs.fi_handles.(cs.fi_n)
  end

(* ---------------- back-end ---------------- *)

let grown a n =
  if n < Array.length a then a
  else begin
    let b = Array.make (imax 8 (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let back_add_entry cs h =
  cs.back <- grown cs.back cs.back_n;
  cs.back.(cs.back_n) <- h;
  cs.back_n <- cs.back_n + 1

(* Drop monitoring-window entries whose time is up, keeping the order. *)
let prune_window t now =
  if t.wb_n > 0 then begin
    let w = t.config.Config.monitor_window in
    let k = ref 0 in
    for i = 0 to t.wb_n - 1 do
      if t.wb_time.(i) + w >= now then begin
        t.wb_line.(!k) <- t.wb_line.(i);
        t.wb_version.(!k) <- t.wb_version.(i);
        t.wb_time.(!k) <- t.wb_time.(i);
        incr k
      end
    done;
    t.wb_n <- !k
  end

let window_push t ~line ~version ~time =
  t.wb_line <- grown t.wb_line t.wb_n;
  t.wb_version <- grown t.wb_version t.wb_n;
  t.wb_time <- grown t.wb_time t.wb_n;
  t.wb_line.(t.wb_n) <- line;
  t.wb_version.(t.wb_n) <- version;
  t.wb_time.(t.wb_n) <- time;
  t.wb_n <- t.wb_n + 1

let rec window_covers t ~line ~version i =
  i < t.wb_n
  && ((t.wb_line.(i) = line && t.wb_version.(i) >= version)
     || window_covers t ~line ~version (i + 1))

(* Phase 2's redo pass over the open region's entries, oldest first:
   pending_dec only touches the conflict table and nvm_write never reads
   it, so one pass per entry serves both. Frees every handle; returns the
   number of line writes issued. *)
let commit_entries t cs now =
  let s = cs.slab in
  let lines = ref 0 in
  for i = 0 to cs.back_n - 1 do
    let h = cs.back.(i) in
    pending_dec t ~core:cs.id ~line:s.Slab.line.(h);
    if not s.Slab.valid.(h) then Metrics.Counter.inc t.c.c_redo_skipped_invalid
    else begin
      t.nvm_wq_free <-
        imax t.nvm_wq_free now + t.config.Config.nvm_write_service;
      if
        nvm_write t ~kind:`Redo ~line:s.Slab.line.(h) ~data:s.Slab.words
          ~off:(Slab.redo_off h) ~mask:s.Slab.mask.(h)
          ~version:s.Slab.version.(h)
      then Metrics.Counter.inc t.c.c_redo_writes;
      incr lines
    end;
    Slab.release s h
  done;
  !lines

(* Oracle-sensitivity fault injection for compaction (see [compact]):
   when armed, the physical journal reclaim runs *before* the checkpoint
   cursor flips — the torn ordering the protocol exists to rule out. The
   truncated entries vanish from the ledger while the cursor still
   points below them, so the recovered acked streams develop a hole that
   the Sla prefix oracle must report. Test-only; tests arm and reset. *)
let fault_tear_compaction = Atomic.make false

let rec list_drop n l =
  if n <= 0 then l
  else match l with [] -> [] | _ :: tl -> list_drop (n - 1) tl

(* Journal/proxy-log compaction. A journal entry's only post-crash role
   is re-acking (exactly-once output): its region's data effects were
   already copied to NVM by phase 2 *before* the entry was appended (see
   [do_commit]: [commit_entries] runs first). So once the durable tail
   reaches [compact_interval] entries, the whole tail can be truncated
   by durably advancing the checkpoint cursor one word — clients that
   heard those acks keep them (the ledger is their record); restart
   simply stops re-serving them. The flip is failure-atomic because the
   cursor is a single word and physical reclaim is deferred until after
   it persists; a crash on either side sees a consistent journal. *)
let compact t cs =
  let interval = t.config.Config.compact_interval in
  if interval > 0 && cs.journal_len - cs.journal_base >= interval then begin
    let truncated = cs.journal_len - cs.journal_base in
    if Atomic.get fault_tear_compaction then begin
      (* reclaim before the cursor flip, then crash-stop the flip: the
         entries are simply gone from every later view *)
      cs.journal <- list_drop truncated cs.journal;
      cs.journal_len <- cs.journal_base
    end
    else cs.journal_base <- cs.journal_len;
    Metrics.Counter.inc t.c.c_compactions;
    Metrics.Counter.add t.c.c_journal_truncated truncated
  end

(* Phase 2 of the open back region, on its commit marker carrying [k]
   slots: copy redo data of valid entries, apply the checkpoint slots,
   journal the region's outputs, update the resume record, report the
   commit to the closed region's tally row, and schedule the space
   release. *)
let do_commit t cs k now =
  let seq = Fifo.pop cs.cmq in
  let boundary = Fifo.pop cs.cmq in
  let sp = Fifo.pop cs.cmq in
  let nouts = Fifo.pop cs.cmq in
  let row = Fifo.pop cs.cmq in
  let closed_at = Fifo.pop cs.cmq in
  Metrics.Counter.inc t.c.c_commits;
  let entry_lines = commit_entries t cs now in
  for _ = 1 to k do
    let slot = Fifo.pop cs.cmq in
    cs.slot_array.(slot) <- Fifo.pop cs.cmq
  done;
  (* Slot stores are adjacent 8-byte words of the per-core checkpoint
     array: they coalesce into whole-line writes (at most 4 lines for 32
     registers). They bypass the stamp machinery (the slot arrays live
     outside data memory) but still count as NVM line traffic. *)
  let slot_lines = (k + 7) / 8 in
  Metrics.Counter.add t.c.c_nvm_writes_slot slot_lines;
  Metrics.Counter.add t.c.c_nvm_line_writes slot_lines;
  for _ = 1 to slot_lines do
    t.nvm_wq_free <- imax t.nvm_wq_free now + t.config.Config.nvm_write_service
  done;
  let commit_lines = entry_lines + slot_lines in
  (* A marker can drain from a stale [next_drain] and land before the
     close that queued it (DESIGN.md section 5b, item 8): the latency is
     clamped at zero. *)
  if row >= 0 then
    t.commit_hook ~row ~latency:(imax 0 (now - closed_at))
      ~nvm_lines:commit_lines;
  let tr = t.obs.Obs.tracer in
  if Capri_obs.Tracer.enabled tr then begin
    Capri_obs.Tracer.instant tr ~track:Capri_obs.Tracer.Proxy ~name:"commit"
      ~ts:now;
    Capri_obs.Tracer.int_arg tr "core" cs.id;
    Capri_obs.Tracer.int_arg tr "seq" seq;
    Capri_obs.Tracer.int_arg tr "nvm_lines" commit_lines
  end;
  if nouts > 0 then begin
    for _ = 1 to nouts do
      cs.journal <- (Fifo.pop cs.outq, now) :: cs.journal
    done;
    cs.journal_len <- cs.journal_len + nouts;
    compact t cs
  end;
  set_resume cs ~boundary ~sp;
  if cs.back_n > 0 then begin
    t.eserial <- t.eserial + 1;
    Ring.push t.frees (imax now t.nvm_wq_free) t.eserial
      ((cs.back_n * Array.length t.cores) + cs.id)
  end;
  cs.back_n <- 0

let deliver t cs item now =
  if item >= 0 then begin
    (* Monitoring window: a writeback that already carried data at least
       this new (same line) invalidates the arriving redo. *)
    prune_window t now;
    let s = cs.slab in
    if
      t.wb_n > 0
      && window_covers t ~line:s.Slab.line.(item) ~version:s.Slab.version.(item)
           0
      && s.Slab.valid.(item)
    then begin
      s.Slab.valid.(item) <- false;
      Metrics.Counter.inc t.c.c_window_invalidations
    end;
    back_add_entry cs item
  end
  else do_commit t cs (commit_slots item) now

(* ---------------- draining ---------------- *)

(* When the front queue's head leaves for the back end: [max_int] when
   the queue is empty or its head is a data entry waiting for back-end
   space. Each slot a region checkpoints occupies the path like a marker
   of its own, one marker gap ahead of the region's commit, so a commit
   carrying [k] slots leaves [k] marker gaps after its turn: a region
   close costs one path item yet keeps the timing of [k + 1]. *)
let[@inline] drain_time t cs =
  if Fifo.is_empty cs.front then max_int
  else begin
    let item = Fifo.peek cs.front in
    if item >= 0 then
      if cs.back_used < t.config.Config.back_proxy_entries then
        imax cs.next_drain 0
      else max_int
    else imax cs.next_drain 0 + (commit_slots item * t.marker_gap)
  end

let drain_one t cs now =
  let item = Fifo.pop cs.front in
  if item >= 0 then begin
    cs.front_data <- cs.front_data - 1;
    cs.back_used <- cs.back_used + 1;
    (* The entry leaves the front-end: no longer mergeable. *)
    fi_unbind cs item
  end;
  t.eserial <- t.eserial + 1;
  Ring.push cs.arrivals (now + t.config.Config.proxy_path_latency) t.eserial
    item;
  (* Occupancy is proportional to payload: a data entry carries two cache
     lines (undo + redo), a marker a dozen bytes. *)
  cs.next_drain <-
    (now + if item >= 0 then t.config.Config.proxy_path_gap else t.marker_gap)

let release_space t =
  let v = Ring.pop t.frees in
  let ncores = Array.length t.cores in
  let cs = t.cores.(v mod ncores) in
  cs.back_used <- cs.back_used - (v / ncores)

(* The event loop interleaves ring events and per-core drains in time
   order. It runs once per proxy-path item systemwide, so each iteration
   is one closure-free pass over the cores that picks both candidates:
   the earliest ring head by (time, serial) — the free ring first, then
   each core's arrivals, the exact pop order of one global heap, since
   serials are stamped at push in chronological order across all
   rings — and the earliest drain, first core on ties. A ring head wins
   a time tie against a drain. *)
let rec advance_loop t ~cycle =
  let cores = t.cores in
  let bt = ref (Ring.top_time t.frees) in
  let bs = ref (Ring.top_serial t.frees) in
  let bi = ref (-1) in
  let td = ref max_int in
  let di = ref (-1) in
  for i = 0 to Array.length cores - 1 do
    let cs = Array.unsafe_get cores i in
    let a = cs.arrivals in
    let ti = Ring.top_time a in
    if ti < !bt || (ti = !bt && Ring.top_serial a < !bs) then begin
      bt := ti;
      bs := Ring.top_serial a;
      bi := i
    end;
    let d = drain_time t cs in
    if d < !td then begin
      td := d;
      di := i
    end
  done;
  let bt = !bt and td = !td in
  if bt <= cycle && bt <= td then begin
    if !bi < 0 then release_space t
    else begin
      let cs = Array.unsafe_get cores !bi in
      deliver t cs (Ring.pop cs.arrivals) bt
    end;
    advance_loop t ~cycle
  end
  else if td <= cycle then begin
    drain_one t (Array.unsafe_get cores !di) td;
    advance_loop t ~cycle
  end
  else
    (* The stopping iteration has the exact next internal event time in
       hand — record it so [advance] need not rescan. *)
    t.wake <- imin bt td

(* Recompute the exact next internal event time: the minimum over the
   ring heads and every core's drain time. *)
let rec next_event_from t i m =
  if i >= Array.length t.cores then m
  else begin
    let cs = Array.unsafe_get t.cores i in
    next_event_from t (i + 1)
      (imin m (imin (Ring.top_time cs.arrivals) (drain_time t cs)))
  end

let next_event_time t = next_event_from t 0 (Ring.top_time t.frees)

let[@inline] advance t ~cycle =
  (* [advance_loop]'s stopping iteration stores the next due time into
     [t.wake] itself, so no separate rescan is needed here. *)
  if cycle >= t.wake then advance_loop t ~cycle

(* Whether everything [cs] produced is durable at [now]. A commit's
   slots land one marker gap apart ahead of it (see [drain_time]), and
   landed slots wait in the back end for their commit, so the core is
   not drained from its first slot's landing until the commit lands.
   With no back-end space held only commits are in flight, and only the
   oldest can have begun landing: a later commit's first slot would land
   after the oldest commit itself. *)
let fully_drained t cs ~now =
  Fifo.is_empty cs.front && cs.back_n = 0 && cs.back_used = 0
  && (cs.arrivals.Ring.len = 0
     || begin
       let k = commit_slots (Ring.get cs.arrivals 0) in
       k = 0 || Ring.top_time cs.arrivals - (k * t.marker_gap) > now
     end)

let blocked t cs ~now = function
  | Front_slot -> cs.front_data >= t.config.Config.front_proxy_entries
  | Drained -> not (fully_drained t cs ~now)

(* Pump time forward until [cs] is no longer blocked on [wait]; returns
   the cycle at which it is not. Models core stalls on full buffers. *)
let stall_until t ~cycle cs wait =
  let now = ref cycle in
  advance t ~cycle:!now;
  let guard = ref 0 in
  while blocked t cs ~now:!now wait do
    incr guard;
    if !guard > 100_000_000 then failwith "Persist: stall does not resolve";
    let next_time = next_event_time t in
    if next_time = max_int then
      failwith "Persist: stalled with no pending events"
    else begin
      now := imax !now next_time;
      advance t ~cycle:!now
    end
  done;
  !now

let fence_active t =
  t.config.Config.conflict_fence && t.mode <> Volatile

let rec conflicts a base ~core ~mask c ncores =
  c < ncores
  && ((c <> core
      && a.(base + (2 * c)) > 0
      && a.(base + (2 * c) + 1) land mask <> 0)
     || conflicts a base ~core ~mask (c + 1) ncores)

let store_conflict t ~core ~cycle ~line ~mask =
  match t.mode with
  | Volatile -> false
  | _ when not t.config.Config.conflict_fence -> false
  | Capri | Naive_sync | Undo_sync | Redo_nowb ->
    advance t ~cycle;
    let a = Line_pages.find t.pending line in
    a != Line_pages.absent
    && conflicts a (Line_pages.offset t.pending line) ~core ~mask 0
         (Array.length t.cores)

(* ---------------- core-facing operations ---------------- *)

(* Phase 1, fed a single word delta. The proxy entry itself is the
   accumulation buffer: a merge is one in-place word write (the entry's
   unmasked words are never observed — recovery and phase 2 both apply
   [mask] — so refreshing them would be wasted work), and only entry
   creation copies the line, from [memory]'s page straight into the
   slab. [memory] is the architectural memory *after* the store, so the
   undo image is that line with the stored word rolled back to [old]. *)
let on_store_word t ~core ~cycle ~line ~mask ~word ~value ~old ~version
    ~memory =
  match t.mode with
  | Volatile -> 0
  | Capri | Naive_sync | Undo_sync | Redo_nowb ->
    let cs = t.cores.(core) in
    advance t ~cycle;
    let s = cs.slab in
    let h = fi_find cs line in
    if h >= 0 && s.Slab.seq.(h) = cs.open_seq then begin
      (* Merge with a front-resident entry of the same open region. *)
      s.Slab.words.(Slab.redo_off h + word) <- value;
      s.Slab.mask.(h) <- s.Slab.mask.(h) lor mask;
      s.Slab.version.(h) <- version;
      pending_add_mask t ~core ~line ~mask;
      Metrics.Counter.inc t.c.c_entries_merged;
      0
    end
    else begin
      let stall =
        if cs.front_data >= t.config.Config.front_proxy_entries then begin
          let finish = stall_until t ~cycle cs Front_slot in
          let stall = imax 0 (finish - cycle) in
          Metrics.Counter.add t.c.c_store_stall_cycles stall;
          stall
        end
        else 0
      in
      (* The transfer to the back-end cannot begin in the creation
         cycle, so a same-cycle second store to the line still merges.
         Time has advanced to this cycle, so a drainable head already
         leaves after it: only an idle front needs the raise. Raising
         under a waiting commit would move its turn, from which its
         slots' gaps are counted (see [drain_time]). *)
      if drain_time t cs = max_int then
        cs.next_drain <- imax cs.next_drain (cycle + 1);
      let h = Slab.alloc s in
      let words = s.Slab.words in
      Memory.blit_line memory line words (Slab.redo_off h);
      Array.blit words (Slab.redo_off h) words (Slab.undo_off h)
        Config.line_words;
      words.(Slab.undo_off h + word) <- old;
      s.Slab.line.(h) <- line;
      s.Slab.mask.(h) <- mask;
      s.Slab.version.(h) <- version;
      s.Slab.valid.(h) <- true;
      s.Slab.seq.(h) <- cs.open_seq;
      pending_inc t ~core:cs.id ~line ~mask;
      Fifo.push cs.front h;
      cs.front_data <- cs.front_data + 1;
      cs.open_entries <- cs.open_entries + 1;
      fi_bind cs line h;
      t.wake <- imin t.wake (imax cs.next_drain 0);
      Metrics.Counter.inc t.c.c_entries_created;
      stall
    end

let on_ckpt t ~core ~slot ~value =
  match t.mode with
  | Volatile -> ()
  | Capri | Naive_sync | Undo_sync | Redo_nowb ->
    let cs = t.cores.(core) in
    if not cs.staged_mark.(slot) then begin
      cs.staged_mark.(slot) <- true;
      cs.staged_order.(cs.staged_n) <- slot;
      cs.staged_n <- cs.staged_n + 1
    end;
    cs.staged_val.(slot) <- value

(* Section 3.3's open I/O problem, handled as the paper suggests: outputs
   stage durably with their region and become externally visible only at
   the region's commit, so an interrupted region's re-execution cannot
   double-emit. *)
let on_out t ~core ~value =
  let cs = t.cores.(core) in
  Fifo.push cs.outq value;
  cs.out_open <- cs.out_open + 1

let journal t ~core = List.rev_map fst t.cores.(core).journal

let journal_entries t ~core = List.rev t.cores.(core).journal

let journal_tail t ~core =
  let cs = t.cores.(core) in
  cs.journal_len - cs.journal_base

let seed_journal t ~core ?(base = 0) ~outs () =
  (* Entries carried over a restart keep no timestamp: they were acked in
     a previous power cycle, before this engine's clock existed. [base]
     carries the checkpoint cursor across the restart: everything below
     it is already compacted out of the durable journal. *)
  let cs = t.cores.(core) in
  cs.journal <- List.rev_map (fun v -> (v, 0)) outs;
  cs.journal_len <- List.length outs;
  cs.journal_base <- max 0 (min base cs.journal_len)

let flush_region t cs ~cycle ~boundary ~sp ~row =
  (* Close the open region: send the commit marker carrying the staged
     checkpoints (final values) and journaled outputs, unless the region
     produced nothing (elided boundary entry, Section 5.2.1
     optimization). *)
  let has_work = cs.open_entries > 0 || cs.staged_n > 0 || cs.out_open > 0 in
  if has_work then begin
    Metrics.Counter.add t.c.c_ckpt_flushes cs.staged_n;
    Fifo.push cs.cmq cs.open_seq;
    Fifo.push cs.cmq boundary;
    Fifo.push cs.cmq sp;
    Fifo.push cs.cmq cs.out_open;
    Fifo.push cs.cmq row;
    Fifo.push cs.cmq cycle;
    for i = 0 to cs.staged_n - 1 do
      let slot = cs.staged_order.(i) in
      Fifo.push cs.cmq slot;
      Fifo.push cs.cmq cs.staged_val.(slot)
    done;
    Fifo.push cs.front (commit_item cs.staged_n);
    t.wake <- imin t.wake (imax cs.next_drain 0)
  end
  else Metrics.Counter.inc t.c.c_boundaries_elided;
  cs.out_open <- 0;
  for i = 0 to cs.staged_n - 1 do
    cs.staged_mark.(cs.staged_order.(i)) <- false
  done;
  cs.staged_n <- 0;
  (* Entries of the finished region still in the front-end must not merge
     with the next region's stores: the seq guard on the merge path makes
     the leftover index entries inert (and cheaper than clearing the
     map once per region), and draining removes them. *)
  cs.open_seq <- cs.open_seq + 1;
  cs.open_entries <- 0

let on_boundary t ~core ~cycle ~boundary ~sp ~row =
  match t.mode with
  | Volatile -> 0
  | Capri | Redo_nowb ->
    let cs = t.cores.(core) in
    advance t ~cycle;
    flush_region t cs ~cycle ~boundary ~sp ~row;
    0
  | Naive_sync | Undo_sync ->
    (* Synchronous region persistence: wait until everything this core has
       produced, including this region, is durable. *)
    let cs = t.cores.(core) in
    advance t ~cycle;
    flush_region t cs ~cycle ~boundary ~sp ~row;
    let finish = stall_until t ~cycle cs Drained in
    let stall = imax 0 (finish - cycle) in
    Metrics.Counter.add t.c.c_boundary_stall_cycles stall;
    stall

let on_writeback t ~cycle ~line ~data ~version =
  match t.mode with
  | Volatile ->
    ignore
      (nvm_write t ~kind:`Wb ~line ~data ~off:0 ~mask:full_mask ~version)
  | Redo_nowb ->
    (* Dirty lines are dropped: only the redo log updates NVM. *)
    ()
  | Capri | Naive_sync | Undo_sync ->
    advance t ~cycle;
    ignore
      (nvm_write t ~kind:`Wb ~line ~data ~off:0 ~mask:full_mask ~version);
    t.nvm_wq_free <-
      imax t.nvm_wq_free cycle + t.config.Config.nvm_write_service;
    (* Scan the back-end proxies: invalidate overtaken redo entries. *)
    Array.iter
      (fun cs ->
        let s = cs.slab in
        for i = 0 to cs.back_n - 1 do
          let h = cs.back.(i) in
          if
            s.Slab.line.(h) = line && s.Slab.valid.(h)
            && s.Slab.version.(h) <= version
          then begin
            s.Slab.valid.(h) <- false;
            Metrics.Counter.inc t.c.c_scan_invalidations
          end
        done)
      t.cores;
    (* Arm the monitoring window for in-flight entries. *)
    prune_window t cycle;
    window_push t ~line ~version ~time:cycle

let on_halt t ~core ~cycle ~row =
  match t.mode with
  | Volatile -> 0
  | Capri | Redo_nowb ->
    (* Asynchronous region persistence extends to program exit: the final
       region's commit drains in the background (its marker flips the
       resume record to Done when it lands; a crash in between replays the
       idempotent tail). The paper's measurements are steady-state
       execution windows and likewise exclude exit-drain time. *)
    let cs = t.cores.(core) in
    advance t ~cycle;
    flush_region t cs ~cycle ~boundary:(-1) ~sp:0 ~row;
    0
  | Naive_sync | Undo_sync ->
    let cs = t.cores.(core) in
    advance t ~cycle;
    flush_region t cs ~cycle ~boundary:(-1) ~sp:0 ~row;
    let finish = stall_until t ~cycle cs Drained in
    cs.res_kind <- finished;
    imax 0 (finish - cycle)

let load_extra_latency t (level : Hierarchy.level) =
  match (t.mode, level) with
  | Redo_nowb, (Hierarchy.Dram | Hierarchy.Nvm) ->
    t.config.Config.proxy_path_latency / 2
  | Redo_nowb, (Hierarchy.L1 | Hierarchy.L2) -> 0
  | (Capri | Naive_sync | Undo_sync | Volatile), _ -> 0

(* ---------------- crash and recovery ---------------- *)

(* Oracle-sensitivity fault injection: when armed, recovery silently
   skips rolling back interrupted regions, exactly the bug class the
   crash-consistency fuzzer's oracle exists to catch. Atomic so fuzz
   campaigns running under a domain pool read a coherent value. Test-only:
   nothing in the library ever sets it. *)
let fault_drop_undo = Atomic.make false

(* Battery drain, as one walk per core: everything on a core's proxy
   path reaches the back end in stream order — the open back region,
   then the in-flight ring (every in-flight item predates everything
   still in the front), then the front queue. Walking in any other order
   would interleave one region's entries out of order when it spans the
   queues — rolled back, two stores to the same word would then restore
   the intermediate value instead of the oldest undo image (a lock word
   acquired and released inside one open region would revert to "held",
   orphaning the lock across recovery). Each commit item closes a group
   of entries, and the walk applies it as it goes: it redoes the group's
   valid entries oldest first, installs the commit's slots, journals its
   outputs at [cycle] and sets the resume record. The trailing group,
   the interrupted region, is undone newest first. The walk reads only
   this core's slab, queues and payload FIFOs, and writes NVM, the stamp
   pages and this core's own records, so walking the cores one after
   another is the whole restart. Returns the records re-applied. *)
let drain_core t cs ~cycle =
  let s = cs.slab in
  let nb = cs.back_n and na = cs.arrivals.Ring.len in
  let item i =
    if i < nb then cs.back.(i)
    else if i < nb + na then Ring.get cs.arrivals (i - nb)
    else Fifo.get cs.front (i - nb - na)
  in
  let n = nb + na + cs.front.Fifo.len in
  let replayed = ref 0 and group = ref 0 in  (* open group's first item *)
  let cm = ref 0 and out = ref 0 in  (* payload cursors *)
  for i = 0 to n - 1 do
    let it = item i in
    if it < 0 then begin
      for j = !group to i - 1 do
        let h = item j in
        if s.Slab.valid.(h) then begin
          ignore
            (nvm_write t ~kind:`Redo ~line:s.Slab.line.(h) ~data:s.Slab.words
               ~off:(Slab.redo_off h) ~mask:s.Slab.mask.(h)
               ~version:s.Slab.version.(h));
          incr replayed
        end
      done;
      group := i + 1;
      let boundary = Fifo.get cs.cmq (!cm + 1)
      and sp = Fifo.get cs.cmq (!cm + 2)
      and nouts = Fifo.get cs.cmq (!cm + 3) in
      for j = 0 to commit_slots it - 1 do
        let p = !cm + 6 + (2 * j) in
        cs.slot_array.(Fifo.get cs.cmq p) <- Fifo.get cs.cmq (p + 1)
      done;
      cm := !cm + 6 + (2 * commit_slots it);
      (* Committed journaled outputs survive the crash too; their regions
         reach phase 2 during recovery, at the crash cycle. (No
         compaction here: compaction is a steady-state activity, not
         something a restart interleaves with its own replay.) *)
      for k = 0 to nouts - 1 do
        cs.journal <- (Fifo.get cs.outq (!out + k), cycle) :: cs.journal
      done;
      out := !out + nouts;
      cs.journal_len <- cs.journal_len + nouts;
      set_resume cs ~boundary ~sp
    end
  done;
  (* Interrupted region: roll back with undo data, newest entry first.
     Staged slots of this region are discarded. *)
  if not (Atomic.get fault_drop_undo) then
    for j = n - 1 downto !group do
      let h = item j in
      let line = s.Slab.line.(h) and mask = s.Slab.mask.(h) in
      Memory.write_line_masked_from t.nvm line s.Slab.words (Slab.undo_off h)
        mask;
      let stamps = Line_pages.page t.stamps line in
      let base = Line_pages.offset t.stamps line in
      for o = 0 to Config.line_words - 1 do
        if mask land (1 lsl o) <> 0 then
          stamps.(base + o) <- imax stamps.(base + o) (s.Slab.version.(h) + 1)
      done;
      incr replayed
    done;
  !replayed

let crash_recover t ~cycle =
  advance t ~cycle;
  Ring.clear t.frees;
  (* Section 5.4: redo committed regions in order, then undo the (at most
     one per core) interrupted region, core by core in core order. *)
  let replayed =
    Array.map
      (fun cs ->
        let n = drain_core t cs ~cycle in
        clear_core cs;
        n)
      t.cores
  in
  Line_pages.reset t.pending;
  {
    nvm = Memory.copy t.nvm;
    resume = Array.map resume_of t.cores;
    slots = Array.map (fun cs -> Array.copy cs.slot_array) t.cores;
    journal = Array.map (fun cs -> List.rev_map fst cs.journal) t.cores;
    acked = Array.map (fun cs -> List.rev cs.journal) t.cores;
    acked_base = Array.map (fun cs -> cs.journal_base) t.cores;
    replayed;
  }
