(** The cache hierarchy: per-core private L1Ds over a shared L2 over a
    direct-mapped memory-side DRAM cache over NVM (Optane memory mode,
    Figure 1).

    Coherence keeps the single-dirty-copy invariant: an L1 miss takes
    the line from whichever other L1 holds it, so at most one L1 holds a
    line, and a line dirty in an L1 is held by that L1 alone — its dirty
    bit names the owner, and no owner table is kept. A dirty line
    therefore always holds the architecturally-latest data, so a
    writeback's payload can be read from {!Memory} at eviction time. Dirty evictions cascade L1 -> L2 ->
    DRAM cache -> NVM; only the last step leaves the volatile domain and
    is reported through [on_nvm_writeback] (the caller reads the line's
    data and version from memory for {!Persist}'s stale-read machinery
    and the durable NVM image). *)

type t

type level = L1 | L2 | Dram | Nvm

val create :
  ?obs:Capri_obs.Obs.t ->
  ?labels:Capri_obs.Metrics.labels ->
  Config.t ->
  on_nvm_writeback:(cycle:int -> line:int -> unit) ->
  t
(** With an enabled [obs] bundle the hit/writeback/invalidation counters
    are registered in the metrics registry (as [cache_*] series, carrying
    [labels] — the executor passes the persistence mode, so per-mode
    registries merge without collisions); with the default null bundle
    they still count but are invisible to snapshots. *)

val load : t -> core:int -> cycle:int -> addr:int -> level
(** Where the line was found; allocates it upward. *)

val store : t -> core:int -> cycle:int -> addr:int -> level
(** Write-allocate; returns the level the line had to be fetched from
    ([L1] when already owned). The caller updates {!Memory} itself —
    ordering between the two does not matter to the hierarchy. *)

val latency : Config.t -> level -> int
(** Access latency to the given level. *)

val flush_all : t -> cycle:int -> unit
(** Write every dirty line back to NVM. Only tests call it: no mode
    flushes at halt, and a crash does {e not} flush — caches die. *)

val drop_all : t -> unit
(** Power loss: every cached line vanishes. *)

val reset : ?obs:Capri_obs.Obs.t -> t -> unit
(** Power-on after {!drop_all}: every cache as {!create} built it
    ({!Cache.reset}) and the counters registered again the way {!create}
    registers them, in [obs]'s registry when it is given (it then stays
    the hierarchy's) and in the hierarchy's own otherwise — with the
    null bundle they restart at zero, with an enabled registry they keep
    accumulating. Only a change of registry registers new cells; the
    caches' allocated sets and, under an unchanged registry, the counter
    cells (zeroed in place under the null registry) are reused. *)

val l1 : t -> core:int -> Cache.t
(** A core's private L1, for inspection by tests. *)

type stats = {
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable dram_hits : int;
  mutable nvm_accesses : int;
  mutable writebacks : int;
  mutable invalidations : int;
}

val stats : t -> stats
(** Snapshot of the live registry counters; mutating the returned record
    has no effect on the hierarchy. *)

val publish : t -> unit
(** Copy the per-cache allocation/eviction counts ({!Cache.stats}, the
    per-core L1s summed) into the registry as [cache_insertions] /
    [cache_evictions] / [cache_dirty_evictions] series labelled by
    level. Idempotent ([set], not [add]); call before snapshotting. *)
