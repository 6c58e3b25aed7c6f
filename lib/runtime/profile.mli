(** The observed-run driver behind [capri profile]: compile once, run
    the program under a set of persistence modes with enabled
    observability bundles (fanned out over a domain pool), and merge the
    per-mode registries into one mode-resolved metrics document.

    Determinism contract: the simulations are deterministic, per-run
    series carry a [mode] label so no two runs collide, and the merge is
    commutative — {!metrics_json}, {!perfetto_json} and {!render_top}
    are byte-identical at any [jobs] count. *)

type t = {
  focus : Capri_arch.Persist.mode;
  compiled : Capri_compiler.Compiled.t;
      (** provenance source (compiles are deterministic) *)
  obs : Capri_obs.Obs.t;
      (** the focus run's bundle: tracer + region profiler *)
  metrics : Capri_obs.Metrics.t;
      (** merged across all modes, plus compile provenance *)
  results : (Capri_arch.Persist.mode * Executor.result) list;
      (** in run order *)
}

val run :
  ?jobs:int ->
  ?config:Capri_arch.Config.t ->
  ?focus:Capri_arch.Persist.mode ->
  ?modes:Capri_arch.Persist.mode list ->
  options:Capri_compiler.Options.t ->
  program:Capri_ir.Program.t ->
  threads:Executor.thread_spec list ->
  unit ->
  t
(** Profile [program] under [modes] (default
    {!Capri_arch.Persist.all_modes}; [focus],
    default [Capri], is added if absent), over [jobs] domains (default
    1). Only the focus run records
    spans; every run contributes mode-labelled counters and region
    distributions. Compile-time boundary-reason and checkpoint-pruning
    provenance is published unlabelled ([compile_*] series). *)

val metrics_json : t -> string
(** Deterministic merged registry snapshot. *)

val perfetto_json : t -> string
(** Chrome trace-event JSON of the focus run (Perfetto-loadable). *)

val validate_trace : t -> (unit, string) result
(** {!Capri_obs.Tracer.validate} on the focus run's trace. *)

val hottest : Executor.region_row array -> n:int -> Executor.region_row list
(** The [n] hottest rows that closed at least once: by stall cycles,
    then NVM lines, then stores, all descending, then region name. *)

val render_top : t -> n:int -> string
(** Hottest-regions table of the focus run's rows ({!hottest}), with a
    trailing [… (+K more regions)] line when it leaves closed regions
    out. *)

val render_reasons : t -> string
(** Boundary-reason breakdown of the compiled partition. *)
