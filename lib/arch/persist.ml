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

let mk_counters metrics ~mode =
  let labels = [ ("mode", mode_name mode) ] in
  let c name = Metrics.counter ~labels metrics ("persist_" ^ name) in
  {
    c_entries_created = c "entries_created";
    c_entries_merged = c "entries_merged";
    c_commits = c "commits";
    c_boundaries_elided = c "boundaries_elided";
    c_ckpt_flushes = c "ckpt_flushes";
    c_redo_writes = c "redo_writes";
    c_redo_skipped_invalid = c "redo_skipped_invalid";
    c_redo_skipped_stale = c "redo_skipped_stale";
    c_scan_invalidations = c "scan_invalidations";
    c_window_invalidations = c "window_invalidations";
    c_store_stall_cycles = c "store_stall_cycles";
    c_boundary_stall_cycles = c "boundary_stall_cycles";
    c_nvm_line_writes = c "nvm_line_writes";
    c_nvm_writes_wb = c "nvm_writes_wb";
    c_nvm_writes_redo = c "nvm_writes_redo";
    c_nvm_writes_slot = c "nvm_writes_slot";
    c_compactions = c "compactions";
    c_journal_truncated = c "journal_truncated";
  }

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

type entry = {
  line : int;
  undo : int array;
  mutable redo : int array;
  mutable mask : int;  (* bit per stored word offset within the line *)
  mutable version : int;
  mutable valid : bool;
  seq : int;  (* dynamic region sequence number, per core *)
}

type commit_info = {
  resume_boundary : int;
  sp : int;
  elide_resume : bool;
  outs : int list;  (* the region's journaled outputs, in order *)
}

let dummy_entry =
  { line = min_int; undo = [||]; redo = [||]; mask = 0; version = 0;
    valid = false; seq = min_int }

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
  type 'a t = {
    mutable times : int array;
    mutable serials : int array;
    mutable vals : 'a array;
    mutable mask : int;  (* capacity - 1 *)
    mutable head : int;
    mutable len : int;
  }

  let create (dummy : 'a) =
    { times = Array.make 64 0; serials = Array.make 64 0;
      vals = Array.make 64 dummy; mask = 63; head = 0; len = 0 }

  let grow r =
    let cap = Array.length r.times in
    let nt = Array.make (2 * cap) 0
    and ns = Array.make (2 * cap) 0
    and nv = Array.make (2 * cap) r.vals.(0) in
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

  let[@inline] is_empty r = r.len = 0
end

(* Untimed FIFO on a growable circular buffer: the front proxy queue.
   Replaces [Stdlib.Queue], whose linked cells cost an allocation per
   push — this queue sees one push and one pop per proxy-path item. *)
module Fifo = struct
  type 'a t = {
    mutable vals : 'a array;
    mutable mask : int;  (* capacity - 1; capacity is a power of two *)
    mutable head : int;
    mutable len : int;
    dummy : 'a;
  }

  let create (dummy : 'a) =
    { vals = Array.make 64 dummy; mask = 63; head = 0; len = 0; dummy }

  let grow q =
    let cap = Array.length q.vals in
    let nv = Array.make (2 * cap) q.dummy in
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
    Array.unsafe_set q.vals q.head q.dummy;
    q.head <- (q.head + 1) land q.mask;
    q.len <- q.len - 1;
    v

  let iter f q =
    for i = 0 to q.len - 1 do
      f q.vals.((q.head + i) land q.mask)
    done

  let clear q =
    Array.fill q.vals 0 (Array.length q.vals) q.dummy;
    q.head <- 0;
    q.len <- 0
end

(* An item travelling the per-core proxy path, in FIFO order. *)
type item =
  | Data of entry
  | Ckpt_flush of { seq : int; slot : int; value : int }
  | Commit of { seq : int; info : commit_info }

let dummy_item =
  Commit { seq = min_int;
           info = { resume_boundary = -1; sp = 0; elide_resume = true;
                    outs = [] } }

(* A region as seen by the back-end proxy. *)
type back_region = {
  mutable bseq : int;
  mutable bentries : entry list;  (* reverse arrival order *)
  mutable bcount : int;
  mutable bslots : (int * int) list;
  mutable bcommit : commit_info option;
}

let dummy_back =
  { bseq = min_int; bentries = []; bcount = 0; bslots = []; bcommit = None }

type core_state = {
  id : int;
  front : item Fifo.t;
  mutable front_data : int;  (* Data items currently in the front queue *)
  (* line -> mergeable front entry, as a bounded linear map: the front
     queue holds at most [front_proxy_entries] (= 32) data entries — the
     store path stalls before exceeding it — so a cache-line scan of the
     line numbers beats hashing on every store. At most one binding per
     line; [fi_n] live. *)
  fi_lines : int array;
  fi_entries : entry array;
  mutable fi_n : int;
  staged_order : int array;  (* slots in first-store order; staged_n live *)
  mutable staged_n : int;
  staged_val : int array;  (* per slot; meaningful while staged_mark *)
  staged_mark : bool array;
  mutable out_staged : int list;  (* I/O journal: open region, reversed *)
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
  arrivals : item Ring.t;  (* in flight on the proxy path, FIFO *)
  mutable back : back_region list;  (* ascending seq *)
  mutable back_spare : back_region;
      (* recycled region record: regions commit in order, so one spare
         covers the steady state and back-region allocation happens once,
         not once per dynamic region. [dummy_back] = empty. *)
  mutable back_used : int;
  mutable resume : resume;
  slot_array : int array;
  mutable halted : bool;
}

type t = {
  config : Config.t;
  mode : mode;
  cores : core_state array;
  frees : (int * int) Ring.t;  (* back-end space releases: (core, n) *)
  mutable eserial : int;  (* global event order stamp across all rings *)
  nvm : Memory.t;  (* durable contents *)
  mutable stamp_pages : int array array;
      (* per-word version stamps of stored NVM data, paged flat arrays:
         page [line lsr 8] holds 256 lines x line_words stamps ([-1] =
         never written). The age guard must match the word granularity of
         masked redo/undo application; [stamps] runs once per NVM line
         write, so it is a shift and two bounds checks, not a hash. *)
  mutable nvm_wq_free : int;  (* write-queue service timeline *)
  mutable wake : int;
      (* earliest cycle at which any internal event (heap entry or
         drainable front-queue head) is due; [advance] is a no-op before
         then. May be conservatively early — every mutation outside
         [advance] that could schedule work lowers it — but never late. *)
  mutable recent_wb : (int * int * int) list;  (* line, version, ctrl time *)
  pending : (int, int array) Hashtbl.t;
      (* line -> per-core count of not-yet-committed entries; drives the
         cross-core conflict fence (see store_conflict) *)
  c : counters;
  obs : Obs.t;
}

let create ?(obs = Obs.null) config ~mode =
  {
    config;
    mode;
    cores =
      Array.init config.Config.cores (fun id ->
          {
            id;
            front = Fifo.create dummy_item;
            front_data = 0;
            fi_lines = Array.make (config.Config.front_proxy_entries + 1) min_int;
            fi_entries =
              Array.make (config.Config.front_proxy_entries + 1) dummy_entry;
            fi_n = 0;
            staged_order = Array.make Capri_ir.Reg.count 0;
            staged_n = 0;
            staged_val = Array.make Capri_ir.Reg.count 0;
            staged_mark = Array.make Capri_ir.Reg.count false;
            out_staged = [];
            journal = [];
            journal_len = 0;
            journal_base = 0;
            open_seq = 0;
            open_entries = 0;
            next_drain = 0;
            arrivals = Ring.create dummy_item;
            back = [];
            back_spare = dummy_back;
            back_used = 0;
            resume = Never_started;
            slot_array = Array.make Capri_ir.Reg.count 0;
            halted = false;
          });
    frees = Ring.create (0, 0);
    eserial = 0;
    nvm = Memory.create ();
    stamp_pages = [||];
    nvm_wq_free = 0;
    wake = 0;
    recent_wb = [];
    pending = Hashtbl.create 256;
    c = mk_counters obs.Obs.metrics ~mode;
    obs;
  }

let debug_line =
  match Sys.getenv_opt "CAPRI_DEBUG_LINE" with
  | Some s -> (try Some (int_of_string s) with _ -> None)
  | None -> None

(* Whether any line is being debugged at all: the hot paths test this
   cheap flag before touching [dbg] — [Printf.ifprintf] still interprets
   the format string (allocating its ignore-continuations), which at
   millions of calls per run is real simulation time. *)
let dbg_on = debug_line <> None

let dbg line fmt =
  if debug_line = Some line then Printf.eprintf fmt
  else Printf.ifprintf stderr fmt

let mode t = t.mode

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

let init_slots t ~core ~slots ~resume_boundary ~sp =
  let cs = t.cores.(core) in
  Array.blit slots 0 cs.slot_array 0 (Array.length cs.slot_array);
  match resume_boundary with
  | Some boundary -> cs.resume <- Resume { boundary; sp }
  | None -> cs.resume <- Never_started

let seed_core t ~core ~slots ~resume =
  let cs = t.cores.(core) in
  Array.blit slots 0 cs.slot_array 0 (Array.length cs.slot_array);
  cs.resume <- resume;
  (match resume with Done -> cs.halted <- true | Resume _ | Never_started -> ())

let stamp_page t line =
  let p = line lsr 8 in
  let np = Array.length t.stamp_pages in
  if p >= np then begin
    let grown = Array.make (max (p + 1) (2 * np)) [||] in
    Array.blit t.stamp_pages 0 grown 0 np;
    t.stamp_pages <- grown
  end;
  let pg = Array.unsafe_get t.stamp_pages p in
  if pg != [||] then pg
  else begin
    let pg = Array.make (256 * Config.line_words) (-1) in
    t.stamp_pages.(p) <- pg;
    pg
  end

(* Word-granular aged write: each masked word lands only if its data is
   at least as new as what that word already holds. [kind] attributes the
   line write to one of the three traffic categories at the single choke
   point, so nvm_line_writes = wb + redo + slot holds by construction. *)
let nvm_write ?(mask = 0xFF) t ~kind ~line ~data ~version =
  let stamps = stamp_page t line in
  let base = (line land 255) * Config.line_words in
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
  if dbg_on then
    dbg line "nvm_write line=%d mask=%x wrote=%x v=%d data2=%d\n" line mask
      !write_mask version data.(2);
  if !write_mask <> 0 then begin
    Memory.write_line_masked t.nvm line data !write_mask;
    true
  end
  else begin
    Metrics.Counter.inc t.c.c_redo_skipped_stale;
    false
  end

let nvm_line t line = Memory.line_snapshot t.nvm line

(* Loader/restart path: install a line of the initial (or recovered)
   durable image directly, regardless of mode. Routing this through
   {!on_writeback} would silently drop it in [Redo_nowb] mode — whose
   writeback handler discards dirty lines by design — leaving the data
   segment non-durable before the first committed region (lost by a
   crash at instruction 0; found by the fuzzer). *)
let install_line t ~line ~data ~version =
  ignore (nvm_write t ~kind:`Wb ~line ~data ~version)

(* ---------------- cross-core conflict fence ---------------- *)

(* Per line and core: how many uncommitted entries touch it, and the OR
   of their word masks. The mask clears when the count drops to zero —
   slightly conservative when several of a core's regions overlap on a
   line, never unsound. *)
let pending_counts t line =
  match Hashtbl.find_opt t.pending line with
  | Some a -> a
  | None ->
    let a = Array.make (2 * t.config.Config.cores) 0 in
    Hashtbl.replace t.pending line a;
    a

(* The pending table's only reader is [store_conflict], which is a no-op
   unless the fence is configured on — so with the fence off (the paper's
   hardware model, and every timing experiment) the per-store bookkeeping
   is skipped entirely. *)
let pending_inc t ~core ~line ~mask =
  if t.config.Config.conflict_fence then begin
    let a = pending_counts t line in
    a.(2 * core) <- a.(2 * core) + 1;
    a.((2 * core) + 1) <- a.((2 * core) + 1) lor mask
  end

let pending_add_mask t ~core ~line ~mask =
  if t.config.Config.conflict_fence then begin
    let a = pending_counts t line in
    a.((2 * core) + 1) <- a.((2 * core) + 1) lor mask
  end

let pending_dec t ~core ~line =
  if t.config.Config.conflict_fence then begin
    let a = pending_counts t line in
    a.(2 * core) <- max 0 (a.(2 * core) - 1);
    if a.(2 * core) = 0 then a.((2 * core) + 1) <- 0
  end

(* Front-index linear map (see [core_state.fi_lines]). [fi_find] returns
   [dummy_entry] on miss — its [seq] is [min_int], which no open region
   ever has, so the merge guard rejects it without a branch on "found". *)
let rec fi_scan cs line i =
  if i >= cs.fi_n then -1
  else if Array.unsafe_get cs.fi_lines i = line then i
  else fi_scan cs line (i + 1)

let[@inline] fi_find cs line =
  let i = fi_scan cs line 0 in
  if i < 0 then dummy_entry else Array.unsafe_get cs.fi_entries i

(* Bind [line -> e], replacing any existing binding for the line (the
   replaced entry is necessarily a stale one from an earlier region). *)
let fi_bind cs line e =
  let i = fi_scan cs line 0 in
  if i >= 0 then cs.fi_entries.(i) <- e
  else begin
    cs.fi_lines.(cs.fi_n) <- line;
    cs.fi_entries.(cs.fi_n) <- e;
    cs.fi_n <- cs.fi_n + 1
  end

(* Remove the binding for [e.line] iff it is [e] itself. *)
let fi_unbind cs e =
  let i = fi_scan cs e.line 0 in
  if i >= 0 && Array.unsafe_get cs.fi_entries i == e then begin
    cs.fi_n <- cs.fi_n - 1;
    cs.fi_lines.(i) <- cs.fi_lines.(cs.fi_n);
    cs.fi_entries.(i) <- cs.fi_entries.(cs.fi_n);
    cs.fi_lines.(cs.fi_n) <- min_int;
    cs.fi_entries.(cs.fi_n) <- dummy_entry
  end

(* ---------------- back-end ---------------- *)

let back_region_for cs seq =
  (* FIFO delivery means the region being delivered to is almost always
     the head of [back] (regions complete in order); the scan and the
     append only run on region creation and the rare multi-region case. *)
  match cs.back with
  | r :: _ when r.bseq = seq -> r
  | l ->
    let rec find = function
      | [] ->
        let r =
          if cs.back_spare != dummy_back then begin
            let r = cs.back_spare in
            cs.back_spare <- dummy_back;
            r.bseq <- seq;
            r
          end
          else
            { bseq = seq; bentries = []; bcount = 0; bslots = [];
              bcommit = None }
        in
        cs.back <- cs.back @ [ r ];
        r
      | r :: tl -> if r.bseq = seq then r else find tl
    in
    find l

let prune_window t now =
  match t.recent_wb with
  | [] -> ()  (* the common case outside writeback storms: no filter pass *)
  | _ ->
    let w = t.config.Config.monitor_window in
    t.recent_wb <- List.filter (fun (_, _, tw) -> tw + w >= now) t.recent_wb

(* [bentries]/[bslots] are in reverse arrival order; recursing into the
   tail first processes oldest-first without materializing [List.rev].
   Depth is bounded by back_proxy_entries / the per-region slot count.
   Top-level (not local to [do_commit]) so no closures are built per
   commit. pending_dec only touches the conflict table and nvm_write
   never reads it, so fusing the two passes per entry is observationally
   identical to the original two-pass loop. Returns the number of line
   writes issued. *)
let rec commit_entries t cs now = function
  | [] -> 0
  | e :: older ->
    let n = commit_entries t cs now older in
    pending_dec t ~core:cs.id ~line:e.line;
    if not e.valid then begin
      Metrics.Counter.inc t.c.c_redo_skipped_invalid;
      n
    end
    else begin
      t.nvm_wq_free <-
        max t.nvm_wq_free now + t.config.Config.nvm_write_service;
      if nvm_write ~mask:e.mask t ~kind:`Redo ~line:e.line ~data:e.redo
           ~version:e.version
      then Metrics.Counter.inc t.c.c_redo_writes;
      n + 1
    end

let rec apply_slots cs = function
  | [] -> ()
  | (slot, value) :: older ->
    apply_slots cs older;
    cs.slot_array.(slot) <- value

(* Drop [region] from a back list; it is almost always the head. *)
let rec remove_back region = function
  | [] -> []
  | r :: tl -> if r == region then tl else r :: remove_back region tl

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

(* Phase 2: copy redo data of valid entries, apply checkpoint slots, update
   the resume record, and schedule the space release. *)
let do_commit t cs region info now =
  (match debug_line with
   | Some l when List.exists (fun e -> e.line = l) region.bentries ->
     Printf.eprintf "commit seq=%d resume=%d now=%d entries=%d\n" region.bseq
       info.resume_boundary now region.bcount
   | _ -> ());
  Metrics.Counter.inc t.c.c_commits;
  let commit_lines = ref (commit_entries t cs now region.bentries) in
  apply_slots cs region.bslots;
  (* Slot stores are adjacent 8-byte words of the per-core checkpoint
     array: they coalesce into whole-line writes (at most 4 lines for 32
     registers). They bypass the stamp machinery (the slot arrays live
     outside data memory) but still count as NVM line traffic. *)
  let slot_lines = (List.length region.bslots + 7) / 8 in
  Metrics.Counter.add t.c.c_nvm_writes_slot slot_lines;
  Metrics.Counter.add t.c.c_nvm_line_writes slot_lines;
  commit_lines := !commit_lines + slot_lines;
  for _ = 1 to slot_lines do
    t.nvm_wq_free <- max t.nvm_wq_free now + t.config.Config.nvm_write_service
  done;
  Capri_obs.Profiler.on_commit t.obs.Obs.regions ~core:cs.id ~seq:region.bseq
    ~cycle:now ~nvm_lines:!commit_lines;
  if Capri_obs.Tracer.enabled t.obs.Obs.tracer then
    Capri_obs.Tracer.instant t.obs.Obs.tracer ~track:Capri_obs.Tracer.Proxy
      ~name:"commit" ~ts:now
      ~args:
        [
          ("core", string_of_int cs.id);
          ("seq", string_of_int region.bseq);
          ("nvm_lines", string_of_int !commit_lines);
        ];
  (match info.outs with
   | [] -> ()
   | outs ->
     cs.journal <- List.rev_append (List.map (fun v -> (v, now)) outs) cs.journal;
     cs.journal_len <- cs.journal_len + List.length outs;
     compact t cs);
  if not info.elide_resume then
    cs.resume <-
      (if info.resume_boundary >= 0 then
         Resume { boundary = info.resume_boundary; sp = info.sp }
       else Done);
  if region.bcount > 0 then begin
    t.eserial <- t.eserial + 1;
    Ring.push t.frees (max now t.nvm_wq_free) t.eserial (cs.id, region.bcount)
  end;
  cs.back <- remove_back region cs.back;
  (* Recycle the record for the next region on this core. *)
  if cs.back_spare == dummy_back then begin
    region.bseq <- min_int;
    region.bentries <- [];
    region.bcount <- 0;
    region.bslots <- [];
    region.bcommit <- None;
    cs.back_spare <- region
  end

let deliver t core item now =
  let cs = t.cores.(core) in
  match item with
  | Data e ->
    (* Monitoring window: a writeback that already carried data at least
       this new (same line) invalidates the arriving redo. *)
    prune_window t now;
    if
      (match t.recent_wb with
       | [] -> false  (* no closure built on the windowless fast path *)
       | l ->
         List.exists (fun (line, v, _) -> line = e.line && v >= e.version) l)
    then begin
      if e.valid then begin
        e.valid <- false;
        Metrics.Counter.inc t.c.c_window_invalidations
      end
    end;
    let r = back_region_for cs e.seq in
    r.bentries <- e :: r.bentries;
    r.bcount <- r.bcount + 1;
    (match r.bcommit with
     | Some info -> do_commit t cs r info now  (* late entry: can't happen
                                                  with FIFO, kept for safety *)
     | None -> ())
  | Ckpt_flush { seq; slot; value } ->
    let r = back_region_for cs seq in
    r.bslots <- (slot, value) :: r.bslots
  | Commit { seq; info } ->
    let r = back_region_for cs seq in
    r.bcommit <- Some info;
    do_commit t cs r info now

(* ---------------- draining ---------------- *)

let[@inline] head_drainable t cs =
  (not (Fifo.is_empty cs.front))
  &&
  match Fifo.peek cs.front with
  | Data _ -> cs.back_used < t.config.Config.back_proxy_entries
  | Ckpt_flush _ | Commit _ -> true

let drain_one t cs now =
  let item = Fifo.pop cs.front in
  (match item with
   | Data e ->
     cs.front_data <- cs.front_data - 1;
     cs.back_used <- cs.back_used + 1;
     (* The entry leaves the front-end: no longer mergeable. *)
     fi_unbind cs e
   | Ckpt_flush _ | Commit _ -> ());
  t.eserial <- t.eserial + 1;
  Ring.push cs.arrivals (now + t.config.Config.proxy_path_latency) t.eserial
    item;
  (* Occupancy is proportional to payload: a data entry carries two cache
     lines (undo + redo), a checkpoint flush or commit marker a dozen
     bytes. *)
  let gap =
    match item with
    | Data _ -> t.config.Config.proxy_path_gap
    | Ckpt_flush _ | Commit _ -> max 1 (t.config.Config.proxy_path_gap / 4)
  in
  cs.next_drain <- now + gap

let advance_loop t ~cycle =
  (* Interleave heap events and per-core drains in time order. Runs once
     per proxy-path item systemwide, so it is written allocation-free:
     [max_int] for "nothing pending", heap wins time ties, first core
     wins drain-time ties (matching the heap's serial order and the
     original fold's first-minimal choice). *)
  (* Written as closure-free tail recursion with immediate-int
     accumulators: this loop runs once per proxy-path event systemwide
     (millions of iterations per run), and refs or [Array.iter] closures
     allocated inside it were the single largest allocation source in the
     whole simulator. *)
  let ncores = Array.length t.cores in
  (* Earliest event ring by (time, serial): returns -1 for the free ring,
     the core id for an arrival ring — the exact pop order of the old
     global heap, since serials are stamped at push in chronological
     order across all rings. *)
  let rec best_event i bt bs bi =
    if i >= ncores then bi
    else begin
      let a = (Array.unsafe_get t.cores i).arrivals in
      let ti = Ring.top_time a in
      if ti < bt || (ti = bt && Ring.top_serial a < bs) then
        best_event (i + 1) ti (Ring.top_serial a) i
      else best_event (i + 1) bt bs bi
    end
  in
  (* Earliest drainable core by due time; first core wins ties (matching
     the original fold's first-minimal choice). *)
  let rec best_drain i bt bi =
    if i >= ncores then bi
    else begin
      let cs = Array.unsafe_get t.cores i in
      if head_drainable t cs then begin
        let d = if cs.next_drain > 0 then cs.next_drain else 0 in
        if d < bt then best_drain (i + 1) d i else best_drain (i + 1) bt bi
      end
      else best_drain (i + 1) bt bi
    end
  in
  let rec go () =
    let bi = best_event 0 (Ring.top_time t.frees) (Ring.top_serial t.frees) (-1) in
    let bt =
      if bi < 0 then Ring.top_time t.frees
      else Ring.top_time t.cores.(bi).arrivals
    in
    let di = best_drain 0 max_int (-1) in
    let td =
      if di < 0 then max_int
      else begin
        let d = t.cores.(di).next_drain in
        if d > 0 then d else 0
      end
    in
    if bt <= cycle && bt <= td then begin
      (if bi < 0 then begin
         let core, n = Ring.pop t.frees in
         t.cores.(core).back_used <- t.cores.(core).back_used - n
       end
       else deliver t bi (Ring.pop t.cores.(bi).arrivals) bt);
      go ()
    end
    else if td <= cycle then begin
      drain_one t t.cores.(di) td;
      go ()
    end
    else
      (* The stopping iteration has the exact next internal event time in
         hand — record it so [advance] need not rescan. *)
      t.wake <- if bt < td then bt else td
  in
  go ()

(* Recompute the exact next internal event time. Identical to the
   next-time scan in [stall_until]: the minimum over the heap's head and
   every core whose front-queue head is currently drainable. *)
let rec next_event_from t i m =
  if i >= Array.length t.cores then m
  else begin
    let ti = Ring.top_time (Array.unsafe_get t.cores i).arrivals in
    next_event_from t (i + 1) (if ti < m then ti else m)
  end

let next_event_time t = next_event_from t 0 (Ring.top_time t.frees)

let rec next_drain_from t i m =
  if i >= Array.length t.cores then m
  else begin
    let cs = Array.unsafe_get t.cores i in
    let m =
      if head_drainable t cs then min m (max cs.next_drain 0) else m
    in
    next_drain_from t (i + 1) m
  end

let[@inline] advance t ~cycle =
  (* [advance_loop]'s stopping iteration stores the next due time into
     [t.wake] itself, so no separate rescan is needed here. *)
  if cycle >= t.wake then advance_loop t ~cycle

(* Pump time forward until [cond] holds; returns the cycle at which it
   does. Used to model core stalls on full buffers. *)
let stall_until t ~cycle cond =
  let now = ref cycle in
  advance t ~cycle:!now;
  let guard = ref 0 in
  while not (cond ()) do
    incr guard;
    if !guard > 100_000_000 then failwith "Persist: stall does not resolve";
    let next_time = next_drain_from t 0 (next_event_time t) in
    if next_time = max_int then
      failwith "Persist: stalled with no pending events"
    else begin
      now := max !now next_time;
      advance t ~cycle:!now
    end
  done;
  !now

let fence_active t =
  t.config.Config.conflict_fence && t.mode <> Volatile

let store_conflict t ~core ~cycle ~line ~mask =
  match t.mode with
  | Volatile -> false
  | _ when not t.config.Config.conflict_fence -> false
  | Capri | Naive_sync | Undo_sync | Redo_nowb ->
    advance t ~cycle;
    (match Hashtbl.find_opt t.pending line with
     | None -> false
     | Some a ->
       let conflict = ref false in
       for c = 0 to t.config.Config.cores - 1 do
         if c <> core && a.(2 * c) > 0 && a.((2 * c) + 1) land mask <> 0 then
           conflict := true
       done;
       !conflict)

(* ---------------- core-facing operations ---------------- *)

let on_store t ~core ~cycle ~line ~mask ~undo ~redo ~version =
  match t.mode with
  | Volatile -> 0
  | Capri | Naive_sync | Undo_sync | Redo_nowb ->
    let cs = t.cores.(core) in
    advance t ~cycle;
    (* Merge with a front-resident entry of the same open region. *)
    (match fi_find cs line with
     | e when e.seq = cs.open_seq ->
       e.redo <- redo;
       e.mask <- e.mask lor mask;
       e.version <- version;
       if dbg_on then
         dbg line "merge line=%d seq=%d mask=%x v=%d redo2=%d\n" line e.seq
           e.mask version redo.(2);
       pending_add_mask t ~core ~line ~mask;
       Metrics.Counter.inc t.c.c_entries_merged;
       0
     | _ ->
       let resolved =
         if cs.front_data >= t.config.Config.front_proxy_entries then begin
           let target = cycle in
           let finish =
             stall_until t ~cycle (fun () ->
                 cs.front_data < t.config.Config.front_proxy_entries)
           in
           let stall = max 0 (finish - target) in
           Metrics.Counter.add t.c.c_store_stall_cycles stall;
           stall
         end
         else 0
       in
       let e =
         { line; undo; redo; mask; version; valid = true; seq = cs.open_seq }
       in
       if dbg_on then
         dbg line "entry line=%d seq=%d mask=%x v=%d redo2=%d undo2=%d\n" line
           e.seq mask version redo.(2) undo.(2);
       pending_inc t ~core:cs.id ~line ~mask;
       Fifo.push cs.front (Data e);
       cs.front_data <- cs.front_data + 1;
       cs.open_entries <- cs.open_entries + 1;
       fi_bind cs line e;
       (* The transfer to the back-end cannot begin in the creation
          cycle, so a same-cycle second store to the line still merges. *)
       cs.next_drain <- max cs.next_drain (cycle + 1);
       t.wake <- min t.wake (max cs.next_drain 0);
       Metrics.Counter.inc t.c.c_entries_created;
       resolved)

(* Same phase-1 protocol as {!on_store}, but fed a single word delta
   instead of caller-built line snapshots. The proxy entry itself is the
   accumulation buffer: a merge is one in-place word write (the entry's
   unmasked words are never observed — recovery and phase 2 both apply
   [mask] — so refreshing them would be wasted work), and only entry
   creation snapshots the line. [memory] is the architectural memory
   *after* the store, so the undo image is the snapshot with the stored
   word rolled back to [old]. *)
let on_store_word t ~core ~cycle ~line ~mask ~word ~value ~old ~version
    ~memory =
  match t.mode with
  | Volatile -> 0
  | Capri | Naive_sync | Undo_sync | Redo_nowb ->
    let cs = t.cores.(core) in
    advance t ~cycle;
    (match fi_find cs line with
     | e when e.seq = cs.open_seq ->
       e.redo.(word) <- value;
       e.mask <- e.mask lor mask;
       e.version <- version;
       if dbg_on then
         dbg line "merge line=%d seq=%d mask=%x v=%d redo2=%d\n" line e.seq
           e.mask version e.redo.(2);
       pending_add_mask t ~core ~line ~mask;
       Metrics.Counter.inc t.c.c_entries_merged;
       0
     | _ ->
       let resolved =
         if cs.front_data >= t.config.Config.front_proxy_entries then begin
           let target = cycle in
           let finish =
             stall_until t ~cycle (fun () ->
                 cs.front_data < t.config.Config.front_proxy_entries)
           in
           let stall = max 0 (finish - target) in
           Metrics.Counter.add t.c.c_store_stall_cycles stall;
           stall
         end
         else 0
       in
       let redo = Memory.line_snapshot memory line in
       let undo = Array.copy redo in
       undo.(word) <- old;
       let e =
         { line; undo; redo; mask; version; valid = true; seq = cs.open_seq }
       in
       if dbg_on then
         dbg line "entry line=%d seq=%d mask=%x v=%d redo2=%d undo2=%d\n" line
           e.seq mask version redo.(2) undo.(2);
       pending_inc t ~core:cs.id ~line ~mask;
       Fifo.push cs.front (Data e);
       cs.front_data <- cs.front_data + 1;
       cs.open_entries <- cs.open_entries + 1;
       fi_bind cs line e;
       cs.next_drain <- max cs.next_drain (cycle + 1);
       t.wake <- min t.wake (max cs.next_drain 0);
       Metrics.Counter.inc t.c.c_entries_created;
       resolved)

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
  cs.out_staged <- value :: cs.out_staged

let journal t ~core = List.rev_map fst t.cores.(core).journal

let journal_entries t ~core = List.rev t.cores.(core).journal

let journal_base t ~core = t.cores.(core).journal_base

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

let flush_region t cs ~boundary ~sp =
  (* Close the open region: flush staged checkpoints (final values),
     journaled outputs and the commit marker, unless the region produced
     nothing (elided boundary entry, Section 5.2.1 optimization). *)
  let outs = List.rev cs.out_staged in
  let has_work = cs.open_entries > 0 || cs.staged_n > 0 || outs <> [] in
  if has_work then begin
    for i = 0 to cs.staged_n - 1 do
      let slot = cs.staged_order.(i) in
      Metrics.Counter.inc t.c.c_ckpt_flushes;
      Fifo.push cs.front
        (Ckpt_flush { seq = cs.open_seq; slot; value = cs.staged_val.(slot) })
    done;
    Fifo.push cs.front
      (Commit
         { seq = cs.open_seq;
           info = { resume_boundary = boundary; sp; elide_resume = false;
                    outs } });
    t.wake <- min t.wake (max cs.next_drain 0)
  end
  else Metrics.Counter.inc t.c.c_boundaries_elided;
  cs.out_staged <- [];
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

let fully_drained cs = Fifo.is_empty cs.front && cs.back = [] && cs.back_used = 0

let on_boundary t ~core ~cycle ~boundary ~sp =
  match t.mode with
  | Volatile -> 0
  | Capri | Redo_nowb ->
    let cs = t.cores.(core) in
    advance t ~cycle;
    flush_region t cs ~boundary ~sp;
    0
  | Naive_sync | Undo_sync ->
    (* Synchronous region persistence: wait until everything this core has
       produced, including this region, is durable. *)
    let cs = t.cores.(core) in
    advance t ~cycle;
    flush_region t cs ~boundary ~sp;
    let finish = stall_until t ~cycle (fun () -> fully_drained cs) in
    let stall = max 0 (finish - cycle) in
    Metrics.Counter.add t.c.c_boundary_stall_cycles stall;
    stall

let on_writeback t ~cycle ~line ~data ~version =
  match t.mode with
  | Volatile -> ignore (nvm_write t ~kind:`Wb ~line ~data ~version)
  | Redo_nowb ->
    (* Dirty lines are dropped: only the redo log updates NVM. *)
    ()
  | Capri | Naive_sync | Undo_sync ->
    advance t ~cycle;
    if dbg_on then
      dbg line "writeback line=%d v=%d data2=%d cyc=%d\n" line version data.(2)
        cycle;
    ignore (nvm_write t ~kind:`Wb ~line ~data ~version);
    t.nvm_wq_free <- max t.nvm_wq_free cycle + t.config.Config.nvm_write_service;
    (* Scan the back-end proxies: invalidate overtaken redo entries. *)
    Array.iter
      (fun cs ->
        List.iter
          (fun r ->
            List.iter
              (fun e ->
                if e.line = line && e.valid && e.version <= version then begin
                  e.valid <- false;
                  Metrics.Counter.inc t.c.c_scan_invalidations
                end)
              r.bentries)
          cs.back)
      t.cores;
    (* Arm the monitoring window for in-flight entries. *)
    prune_window t cycle;
    t.recent_wb <- (line, version, cycle) :: t.recent_wb

let on_halt t ~core ~cycle =
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
    flush_region t cs ~boundary:(-1) ~sp:0;
    cs.halted <- true;
    0
  | Naive_sync | Undo_sync ->
    let cs = t.cores.(core) in
    advance t ~cycle;
    flush_region t cs ~boundary:(-1) ~sp:0;
    let finish = stall_until t ~cycle (fun () -> fully_drained cs) in
    cs.halted <- true;
    cs.resume <- Done;
    max 0 (finish - cycle)

let load_extra_latency t (level : Hierarchy.level) =
  match (t.mode, level) with
  | Redo_nowb, (Hierarchy.Dram | Hierarchy.Nvm) ->
    t.config.Config.proxy_path_latency / 2
  | Redo_nowb, (Hierarchy.L1 | Hierarchy.L2) -> 0
  | (Capri | Naive_sync | Undo_sync | Volatile), _ -> 0

let writebacks_reach_nvm t =
  match t.mode with
  | Redo_nowb -> false
  | Capri | Naive_sync | Undo_sync | Volatile -> true

(* ---------------- crash and recovery ---------------- *)

(* Oracle-sensitivity fault injection: when armed, recovery silently
   skips rolling back interrupted regions, exactly the bug class the
   crash-consistency fuzzer's oracle exists to catch. Atomic so fuzz
   campaigns running under a domain pool read a coherent value. Test-only:
   nothing in the library ever sets it. *)
let fault_drop_undo = Atomic.make false

(* Per-core recovery work, split plan/apply so the planning half can fan
   out over a domain pool. A core's plan is a pure function of its own
   back-end state (sorting the surviving regions, separating committed
   regions' valid redo entries and slot updates from the interrupted
   region's undo entries) — exactly the per-core log scan a parallel
   restart runs on every core at once. Application — the actual NVM
   writes, stamp bumps, journal appends and resume flips — stays in
   fixed core order: stamp pages and counters are shared across cores,
   and a fixed order is what makes the recovered image byte-identical at
   any [jobs] count (the modeled restart time still charges the per-core
   maximum, not the sum — see the serving layer). *)
type rec_step =
  | P_commit of {
      redo : entry list;  (* valid entries, oldest first *)
      slots : (int * int) list;  (* oldest first *)
      info : commit_info;
    }
  | P_undo of entry list  (* newest first *)

let plan_core cs =
  let regions = List.sort (fun a b -> Int.compare a.bseq b.bseq) cs.back in
  let drop_undo = Atomic.get fault_drop_undo in
  let steps =
    List.map
      (fun r ->
        match r.bcommit with
        | Some info ->
          P_commit
            {
              redo = List.filter (fun e -> e.valid) (List.rev r.bentries);
              slots = List.rev r.bslots;
              info;
            }
        | None -> P_undo (if drop_undo then [] else r.bentries))
      regions
  in
  let replayed =
    List.fold_left
      (fun acc s ->
        acc
        +
        match s with
        | P_commit { redo; _ } -> List.length redo
        | P_undo undo -> List.length undo)
      0 steps
  in
  (steps, replayed)

let crash_recover ?(jobs = 1) t ~cycle =
  advance t ~cycle;
  (* Battery drain: everything still in the front-end or on the path
     reaches the back-end structures. [bentries]/[bslots] are reverse
     arrival order (each drained item is prepended), so older items must
     drain first: the in-flight ring holds items that already left the
     front queue, i.e. every in-flight item predates everything still in
     the front. Draining front-first would interleave one region's
     entries out of order when it spans both queues — rolled back, two
     stores to the same word would then restore the intermediate value
     instead of the oldest undo image (a lock word acquired and released
     inside one open region would revert to "held", orphaning the lock
     across recovery). *)
  Array.iter
    (fun cs ->
      while not (Ring.is_empty cs.arrivals) do
        match Ring.pop cs.arrivals with
        | Data e ->
          let r = back_region_for cs e.seq in
          r.bentries <- e :: r.bentries;
          r.bcount <- r.bcount + 1
        | Ckpt_flush { seq; slot; value } ->
          let r = back_region_for cs seq in
          r.bslots <- (slot, value) :: r.bslots
        | Commit { seq; info } ->
          let r = back_region_for cs seq in
          r.bcommit <- Some info
      done)
    t.cores;
  Array.iter
    (fun cs ->
      Fifo.iter
        (fun item ->
          match item with
          | Data e ->
            let r = back_region_for cs e.seq in
            r.bentries <- e :: r.bentries;
            r.bcount <- r.bcount + 1
          | Ckpt_flush { seq; slot; value } ->
            let r = back_region_for cs seq in
            r.bslots <- (slot, value) :: r.bslots
          | Commit { seq; info } ->
            let r = back_region_for cs seq in
            r.bcommit <- Some info)
        cs.front;
      Fifo.clear cs.front)
    t.cores;
  while not (Ring.is_empty t.frees) do
    ignore (Ring.pop t.frees)
  done;
  (* Section 5.4: redo committed regions in order, then undo the (at most
     one per core) interrupted region. Planning fans out across cores —
     every core scans its own surviving log independently — and the
     plans are then applied in fixed core order (see [plan_core]). *)
  let cores_list = Array.to_list t.cores in
  let plans =
    Array.of_list
      (if jobs <= 1 then List.map plan_core cores_list
       else
         Capri_util.Pool.with_pool ~jobs (fun pool ->
             Capri_util.Pool.map_list pool plan_core cores_list))
  in
  Array.iteri
    (fun i cs ->
      let steps, _ = plans.(i) in
      List.iter
        (function
          | P_commit { redo; slots; info } ->
            List.iter
              (fun e ->
                dbg e.line "recover-redo line=%d seq=%d v=%d redo2=%d\n" e.line
                  e.seq e.version e.redo.(2);
                ignore
                  (nvm_write ~mask:e.mask t ~kind:`Redo ~line:e.line
                     ~data:e.redo ~version:e.version))
              redo;
            List.iter (fun (slot, value) -> cs.slot_array.(slot) <- value) slots;
            (* Committed journaled outputs survive the crash too; their
               regions reach phase 2 during recovery, at the crash
               cycle. (No compaction here: compaction is a steady-state
               activity, not something a restart interleaves with its
               own replay.) *)
            (match info.outs with
             | [] -> ()
             | outs ->
               cs.journal <-
                 List.rev_append (List.map (fun v -> (v, cycle)) outs) cs.journal;
               cs.journal_len <- cs.journal_len + List.length outs);
            if not info.elide_resume then
              if info.resume_boundary >= 0 then
                cs.resume <-
                  Resume { boundary = info.resume_boundary; sp = info.sp }
              else cs.resume <- Done
          | P_undo entries ->
            (* Interrupted region: roll back with undo data, newest entry
               first. Staged slots of this region are discarded. *)
            List.iter
              (fun e ->
                dbg e.line "undo line=%d seq=%d mask=%x v=%d undo2=%d\n" e.line
                  e.seq e.mask e.version e.undo.(2);
                Memory.write_line_masked t.nvm e.line e.undo e.mask;
                let stamps = stamp_page t e.line in
                let base = (e.line land 255) * Config.line_words in
                for o = 0 to Config.line_words - 1 do
                  if e.mask land (1 lsl o) <> 0 then
                    stamps.(base + o) <- max stamps.(base + o) (e.version + 1)
                done)
              entries)
        steps;
      cs.back <- [];
      cs.back_used <- 0)
    t.cores;
  Hashtbl.reset t.pending;
  {
    nvm = Memory.copy t.nvm;
    resume = Array.map (fun cs -> cs.resume) t.cores;
    slots = Array.map (fun cs -> Array.copy cs.slot_array) t.cores;
    journal = Array.map (fun cs -> List.rev_map fst cs.journal) t.cores;
    acked = Array.map (fun cs -> List.rev cs.journal) t.cores;
    acked_base = Array.map (fun cs -> cs.journal_base) t.cores;
    replayed = Array.map (fun (_, replayed) -> replayed) plans;
  }
