(** Deterministic workload generator: YCSB-style mixes over a bounded
    zipfian key popularity ({!Capri_util.Rng.zipf}), plus optional
    multi-key transactions.

    [Closed] loop means each client issues its next request only after
    the previous acknowledgement — request latency is the inter-ack gap.
    [Open] loop means requests arrive on a fixed period regardless of
    service progress — latency is ack minus arrival and grows without
    bound when the server cannot keep up (which is what admission
    control, {!Server}, is for). *)

type mix = A | B | C
(** A = 50% reads / 50% updates; B = 95/5; C = read-only. *)

val mix_name : mix -> string

type loop = Closed | Open of { period : int (** cycles between arrivals *) }

type cfg = {
  mix : mix;
  key_space : int;
  ops_per_shard : int;
  skew : float;  (** zipfian skew; 0 = uniform, 0.99 = YCSB default *)
  loop : loop;
  seed : int;
  txns : int;  (** multi-key transactions woven into the streams *)
  txn_items : int;  (** max items per participant shard (>= 1) *)
}

val default : cfg
(** Mix A, 64 keys, 200 ops/shard, skew 0.99, closed loop, seed 1, no
    transactions. *)

type workload = { requests : Wire.request array array; txns : Wire.txn array }
(** Per-shard request streams (singles plus, when [txns > 0], one [Txn]
    marker per participant shard woven in at a random point, markers in
    tid order within each stream) and the transactions themselves. *)

val generate : cfg -> shards:int -> workload
(** Equal [cfg] and [shards] give equal workloads; the single-op streams
    with [txns = 0] are byte-identical to the same cfg's streams with
    markers stripped. *)

val arrival : cfg -> index:int -> int
(** Cycle at which a shard's [index]-th request arrives (0 under a
    closed loop). *)

type tenant = { weight : int; mix : mix; skew : float }
(** One tenant of a shared store: an admission weight (its fair share
    of service), its own op mix and its own key popularity curve over
    a private namespace ({!Wire.tenant_key}). *)

type tenant_workload = {
  base : workload;  (** per-shard streams over global keys *)
  tenants : int;
  space : int;  (** keys per tenant namespace *)
  key_space : int;
      (** global key space to build the store with: [tenants * space],
          plus the shared hot key when the workload carries hot
          transactions *)
  txn_tenant : int array;  (** issuing tenant of tid [i+1], index [i] *)
  weights : int array;  (** admission weights, per tenant *)
}

val generate_tenants :
  ?hot_txns:int -> cfg -> tenants:tenant array -> shards:int -> tenant_workload
(** Multi-tenant workload: tenants interleave into one arrival order by
    smooth weighted round-robin ([cfg.ops_per_shard * shards] ops
    total), each drawing from its own rng, mix and zipfian curve over
    its own [cfg.key_space]-key namespace; requests route to shard
    [key mod shards], so a skew-heavy tenant concentrates load on few
    shards while uniform tenants spread theirs — the imbalance work
    stealing absorbs. [cfg.txns] namespace transactions (2+ keys inside
    the issuer's range) and [hot_txns] hot-key transactions are woven
    in after: the latter all target one shared key outside every
    namespace — tid [cfg.txns + 1] seeds it with an unconditional Put,
    later ones CAS it with the true current value 60% of the time —
    plus a Put in the issuer's own range, so commit/abort contention
    crosses shards. [cfg.mix] and [cfg.skew] are ignored (per-tenant
    instead); equal inputs give equal workloads. *)

val noisy_tenants : tenants:int -> skew:float -> tenant array
(** The noisy-neighbor cast: tenant 0 runs mix A at the given zipfian
    skew, tenants [1..n-1] run mix A uniformly, all equal weight. *)
