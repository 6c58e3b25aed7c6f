(** Region profiler: the distributions behind the executor's per-region
    totals, observed as each value becomes known — stores, checkpoint
    stores and stall cycles at a region's close, commit latency and NVM
    lines at its commit. Observing allocates nothing and writes no
    registry until {!publish}. *)

type t

val create : unit -> t
val null : t
val enabled : t -> bool

val on_close : t -> stores:int -> ckpt_stores:int -> stall_cycles:int -> unit
(** A dynamic region closed with these costs. *)

val on_commit : t -> latency:int -> nvm_lines:int -> unit
(** The proxy committed a closed region [latency] cycles after its
    close, writing [nvm_lines] NVM lines. *)

val publish : ?labels:Metrics.labels -> t -> Metrics.t -> unit
(** Add the observations to the registry's histograms [region_stores],
    [region_ckpt_stores], [region_stall_cycles], [region_commit_latency]
    and [region_nvm_lines] and counters [regions_closed] and
    [regions_committed], all carrying [labels] — the profile driver
    passes the persistence mode so per-mode registries merge into one
    mode-resolved document. *)
