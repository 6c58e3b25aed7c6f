(** Service-level accounting and the serializability + durability
    oracle.

    The contract the serving layer sells: once a request — or a
    transaction outcome — is acknowledged, a power failure at {e any}
    point leaves the store with that effect durable, and the response
    stream is never lost, duplicated or reordered. Transactions commit
    or abort atomically across shards: the oracle replays the whole 2PC
    protocol deterministically on the host (votes against each
    participant's pre-transaction state, decisions in tid order) and
    requires every acked response, every durable table and every durable
    vote/decision record to agree with that unique serializable
    history. [check] enforces all of it against every crash image of a
    run plus the completed run's full response streams. *)

(** Host-side reference model of one shard's table. *)
module Model : sig
  type t

  val create : key_space:int -> t
  val copy : t -> t
  val get : t -> int -> int option

  val seed : t -> (int * int) array -> unit
  (** Install bulk-loaded [(key, value)] pairs as already-committed
      state. [replay] and the crash oracle's per-prefix states start
      every shard model from its {!Kvstore.t.preload}. *)

  val apply : t -> Wire.request -> int
  (** Mutates the model; returns the response word the shard handler
      must emit for this request. Raises on a [Txn] marker — those
      expand through the protocol replay. *)
end

val expected_responses : key_space:int -> Wire.request array -> int array
(** Single-op streams only (no markers). *)

type protocol
(** The replayed 2PC history of a store: per-core expected response
    streams, per-txn votes and decisions, per-shard micro-op
    expansions. *)

val replay : Kvstore.t -> protocol

val expected_streams : protocol -> int array array
(** Per core, coordinator last when the store has transactions. *)

type resp_meta = { kind : string; tid : int; key : int }
(** Classification of one expected response: [kind] is ["read"],
    ["update"], ["insert"] (a put on an absent key) or ["txn"] (items,
    abort acknowledgements and coordinator outcomes); [tid] is the
    owning transaction id, [-1] for singles; [key] is the request's
    global key, [-1] for abort acknowledgements and coordinator
    outcomes. *)

val response_meta : protocol -> resp_meta array array
(** Aligned index-for-index with {!expected_streams}. *)

val normalize :
  kv:Kvstore.t ->
  word:('a -> int) ->
  'a list array ->
  'a list array * string list
(** Physical per-core streams to logical per-shard streams (coordinator
    last), the shape {!expected_streams} predicts. Identity for pinned
    stores; for scheduled stores the worker streams are demultiplexed by
    their slice headers (via {!Sched.views}, headers stripped). The
    string list reports demux protocol errors — non-empty means a slice
    was lost, duplicated or reordered, which {!check} treats as a
    violation. *)

val tenant_of :
  tenants:int -> space:int -> txn_tenant:int array -> resp_meta -> int
(** Tenant owning one expected response: transaction responses by the
    issuing tenant ([txn_tenant].(tid-1)), singles by their key's
    namespace, anything outside every namespace (the shared hot key) and
    single-tenant stores to tenant 0. *)

val decisions : protocol -> bool array

val txn_outcomes : protocol -> int * int
(** [(commits, aborts)] of the replayed transactions. *)

type violation = { shard : int; crash_index : int; detail : string }
(** [shard] is a core index (the coordinator is core [shards]);
    [crash_index = -1] marks a completion check failure. *)

val pp_violation : Format.formatter -> violation -> unit

val check :
  kv:Kvstore.t ->
  images:Capri_arch.Persist.image list ->
  final:int list array ->
  (unit, violation) result
(** For every crash image: each core's acked responses must be a prefix
    of the protocol's answers; each recovered table must equal the
    protocol replayed to some point in [\[acked, acked+2\]] micro-ops
    (a mutation's region can commit while the response's region is
    still open); each durable vote/decision word must be 0 or the
    protocol's value, and must be the protocol's value once its owner
    acked past the record's sealing point. For the completed run: the
    response streams of every core must equal the protocol's answers
    exactly (exactly-once delivery). Scheduled stores are checked
    through {!normalize}: the per-shard views reassembled from the
    slice headers must satisfy everything a pinned shard core must —
    commit ordering across a steal (the thief's lock acquire conflicts
    with the victim's release) makes per-shard prefixes meaningful even
    when consecutive slices ran on different cores, and demux errors
    are themselves violations. *)

type stats = {
  ops : int;  (** acknowledged responses (txn item/outcome acks included) *)
  rejected : int;  (** refused by admission control *)
  cycles : int;  (** wall-clock including modeled recovery time *)
  throughput : float;  (** acked ops per kilocycle *)
  p50 : float;
  p99 : float;  (** request latency percentiles, cycles *)
  recoveries : int;
  mean_recovery : float;  (** modeled cycles per recovery *)
  availability : float;
      (** fraction of the run outside modeled recovery time, in [0,1] *)
  txn_commits : int;
  txn_aborts : int;
}

val request_latencies : loop:Client.loop -> (int * int) list -> int list
(** Per-request latency of one core's [(response, ack cycle)] stream. *)

val request_intervals : loop:Client.loop -> (int * int) list -> (int * int * int) list
(** Per-request [(start, ack, latency)] of one core's stream: [start]
    is the previous ack (closed loop) or the nominal arrival (open
    loop), clamped so [start <= ack]; [latency] agrees with
    {!request_latencies}. *)

val stats :
  ?txns:int * int ->
  loop:Client.loop ->
  acks:(int * int) list array ->
  cycles:int ->
  rejected:int ->
  recoveries:int ->
  recovery_cycles:int ->
  unit ->
  stats
(** Closed-loop latency is the inter-ack gap; open-loop latency is ack
    minus nominal arrival (clamped to 1). [txns] is the store's
    [(commits, aborts)] tally, default [(0, 0)]. *)

val pp_stats : Format.formatter -> stats -> unit
