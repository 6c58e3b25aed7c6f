(** The crash-recovery protocol (Section 5.4), software side.

    {!Capri_arch.Persist.crash_recover} already performed the architecture
    side (redo committed regions, undo the interrupted one, drain the
    battery-backed buffers). This module finishes the job the paper's
    recovery threads do in software:

    + execute the pruning pass's recovery blocks registered against each
      core's resume boundary, rebuilding pruned checkpoint slots
      (Section 4.4.1);
    + hand back a resumable session whose threads sit at their interrupted
      regions' boundaries with all architectural registers reloaded from
      the slot arrays.

    {!drive} is the one loop that runs this cycle, on a machine its
    caller holds; the verifier, the serving layer, the fuzzer's oracle
    and the examples all crash through it. *)

module Arch = Capri_arch

val apply_recovery_blocks_per_core :
  Capri_compiler.Compiled.t -> Arch.Persist.image -> int array
(** Mutates the image's slot arrays in place; returns how many recovery
    blocks ran on each core. Runs on the calling domain, core by core (a
    core's blocks touch only its own slot array). The per-core counts
    feed the restart-time model, which charges the {e maximum} over
    cores — the simulated restart finishes with its slowest core. *)

val machine :
  ?config:Arch.Config.t -> ?mode:Arch.Persist.mode -> ?journal_io:bool ->
  ?obs:Capri_obs.Obs.t -> ?threads:Executor.thread_spec list ->
  Capri_compiler.Compiled.t -> Executor.session
(** A new machine for [compiled]: {!Executor.start} of its program with
    its store threshold checked, the start options as there, [threads]
    defaulting to the main function. *)

val drive :
  ?obs:Capri_obs.Obs.t ->
  ?on_crash:(Executor.crash -> int array -> unit) -> crash_at:int list ->
  Capri_compiler.Compiled.t -> Executor.session -> Executor.result
(** [drive ~crash_at compiled machine] runs [machine], a machine of
    [compiled]'s program ({!machine}), from its start state to each crash
    point in turn (each counted in global instructions within its own
    session): it applies the recovery blocks per core, calls [on_crash]
    (default: nothing) with the crash and the per-core block counts, and
    {!Executor.resume}s. It runs the last session to the end and returns
    its result; a session that finishes before its crash point ends the
    drive. Outputs, acks and clocks of the crashed sessions are the
    hook's to collect. Raises [Invalid_argument] when [machine] was not
    started with [compiled]'s program (the very value, compared
    physically), whose region ids the crash images' resume boundaries
    are.

    The drive first {!Executor.rewind}s [machine] under [obs] (default:
    the machine's own bundle) — nothing to undo on a machine just made —
    so the caller that holds a machine may drive it again and again, and
    each resume restarts it in place: a drive builds no machine. The
    result's [memory] and [profile] belong to [machine] until its next
    drive; a result checked against later drives needs a machine of its
    own. *)
