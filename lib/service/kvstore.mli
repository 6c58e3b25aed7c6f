(** The store itself, written in the Capri IR.

    [build] emits one [shard] handler function — an open-addressing hash
    table (two words per slot, key 0 = empty) over the NVM heap with
    get/put/delete/cas handled inline — plus per-shard request mailboxes
    and tables in disjoint data-segment allocations. Each shard core runs
    [shard] with its own mailbox/table base registers; a fence every
    [batch] requests bounds how long a region (and therefore an
    acknowledgement) can stay open.

    When the workload carries transactions, [build] additionally emits a
    [coord] function (one extra core) and gives each shard a 2PC
    participant path: a [Txn] marker in the mailbox makes the shard
    compute a vote over its local items (every [Cas] must match the
    pre-transaction state), store it in its own word of the
    transaction's {e ctrl block}, fence — sealing the vote record in its
    own failure-atomic region — and then spin on the block's decision
    word. The coordinator waits for all vote words (non-participants are
    pre-initialized to yes), stores the decision and acks the outcome in
    one fenced region. On commit the shard applies its items in order,
    one response each; on abort it answers a single [Aborted] response.
    Inter-core persist ordering (the word-granular conflict fence) plus
    deterministic re-execution after resume make the protocol
    crash-consistent: a crash at any cycle either fully applies or fully
    discards a transaction after recovery.

    The handler contains no persistence-aware code: no logging, no
    flushes, no recovery paths. Compiling it through the Capri pipeline
    and running it under the persistence engine is what makes the store
    durable. Deletion leaves the key in place with a [-1] value sentinel
    so probe chains stay intact; since [capacity > key_space], probes
    always terminate.

    With [?sched], [build] emits a [worker] function instead of [shard]:
    shards become descriptor-backed tasks multiplexed over
    [sched.cores] cores through per-core work-stealing deques (layout
    and commit-ordering argument in {!Sched}). Workers announce every
    executed slice with a {!Wire.slice_header} word; a parked 2PC
    participant is re-enqueued instead of spinning, so fewer cores than
    shards cannot deadlock the protocol. All scheduler state is
    ordinary NVM data — crash recovery needs nothing scheduler-aware. *)

type t = {
  shards : int;
  cores : int;
      (** shards (or [sched.cores] under the scheduler), plus the
          coordinator core when txns exist *)
  key_space : int;  (** client keys are [1..key_space] *)
  capacity : int;  (** slots per shard table *)
  batch : int;
  requests : Wire.request array array;  (** per shard, mailbox order *)
  preload : (int * int) array array;
      (** per shard: [(key, value)] pairs bulk-loaded into the table
          before the run (always [shards] entries, empty when nothing
          was preloaded). Oracles must treat these as already-durable
          committed state. *)
  txns : Wire.txn array;  (** tid [i+1] at index [i] *)
  program : Capri_ir.Program.t;
  mailboxes : int array;  (** per shard: mailbox base address *)
  tables : int array;  (** per shard: table base address *)
  items : int array;
      (** per shard: txn item area base (items of that shard in tid then
          item order, {!Wire.words_per_request} words each; 0 when the
          store has no txns) *)
  ctrl : int;  (** 2PC ctrl area base (0 when no txns) *)
  txn_stride : int;
      (** words per ctrl block: \[decision; vote_shard0; ...\] padded to
          a cache line *)
  sched : Sched.cfg option;  (** the scheduler the store was built for *)
  descs : int;  (** task descriptor area base (0 when unscheduled) *)
  deques : int;  (** per-core deque area base (0 when unscheduled) *)
  globals : int;  (** scheduler globals base (0 when unscheduled) *)
}

val fault_skip_decision : bool Atomic.t
(** Oracle-sensitivity knob, read at [build] time: the participant path
    skips the decision spin and treats its own vote as the global
    decision — a yes-voting shard applies its items even when the
    transaction aborts. The fuzz campaign's serializability oracle must
    catch this. Default [false]. *)

val synthetic_preload : shards:int -> keys:int -> (int * int) array array
(** Deterministic committed state for [?preload]: keys [1..keys] on every
    shard, key [k] of shard [s] holding [(k + 17 s) mod 251], so
    cross-shard confusion shows in the oracle's table scan. [\[||\]] (an
    empty store) when [keys <= 0]. Raises [Invalid_argument], before
    building anything, when [shards] tables of [2 * keys] slots (at
    least 8; two words each) would not fit {!Capri_runtime.Layout.heap_words}, or
    when [shards < 1]. *)

val cores_for : ?sched:Sched.cfg -> shards:int -> txns:int -> unit -> int
(** Cores a store with this many shards and transactions runs on: one
    worker per shard (or [sched.cores] under the scheduler), plus the
    2PC coordinator when [txns > 0]. *)

val build :
  ?batch:int ->
  ?txns:Wire.txn array ->
  ?sched:Sched.cfg ->
  ?preload:(int * int) array array ->
  key_space:int ->
  requests:Wire.request array array ->
  unit ->
  t
(** One shard per element of [requests]. Raises [Invalid_argument] on an
    empty shard list, a non-positive key space or batch, more cores than
    {!Capri_runtime.Layout.max_cores}, an out-of-range request, an
    inconsistent transaction set (tids not [1..n], markers missing, out
    of tid order, on non-participant shards, or with wrong item
    counts), a bad scheduler config, a preload with the wrong shard
    count or out-of-range keys/values, or a store too big for
    {!Capri_runtime.Layout.check_heap}.

    [?preload] seeds each shard's table with [(key, value)] pairs as
    already-committed durable state, installed host-side by replaying
    the emitted probe discipline in array order — byte-identical to what
    serving the same [Put]s would leave — and shipped as one program
    blob per shard rather than per-word data cells, so million-key
    stores build and load in O(keys) with small constants. With [?sched], non-empty shards
    start pinned to their home core [shard mod cores] and migrate only
    by stealing, so [{steal = false}] reproduces static pinning folded
    over the available cores. *)

val workers : t -> int
(** Cores that emit shard responses: [shards] when pinned, the
    scheduler's core count otherwise. The coordinator, when present, is
    core [workers t]. *)

val thread_specs : t -> Capri_runtime.Executor.thread_spec list
(** One thread per shard (pinned) or per scheduler core (scheduled)
    plus, when txns exist, the coordinator thread on the last core,
    parameterized via argument registers. *)

val lookup : t -> Capri_arch.Memory.t -> shard:int -> key:int -> int option
(** Host-side probe of a shard's table in a memory image (used by the
    durability oracle against recovered NVM). *)

val ctrl_decision : t -> Capri_arch.Memory.t -> tid:int -> int
(** The txn's durable decision word: 0 undecided, 1 commit, 2 abort. *)

val ctrl_vote : t -> Capri_arch.Memory.t -> tid:int -> shard:int -> int
(** A shard's durable vote word: 0 unvoted, 1 yes, 2 no
    (non-participants read 1 from the initial image). *)

val steal_total : t -> Capri_arch.Memory.t -> int
(** Tasks the scheduler cores stole during the run, summed over the
    per-core counters in the scheduler globals (0 for unscheduled
    stores). *)
