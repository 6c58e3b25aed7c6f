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

    {!drive} is the one loop that runs this cycle; the verifier, the
    serving layer, the fuzzer's oracle and the examples all crash through
    it. *)

module Arch = Capri_arch

val apply_recovery_blocks_per_core :
  Capri_compiler.Compiled.t -> Arch.Persist.image -> int array
(** Mutates the image's slot arrays in place; returns how many recovery
    blocks ran on each core. Runs on the calling domain, core by core (a
    core's blocks touch only its own slot array). The per-core counts
    feed the restart-time model, which charges the {e maximum} over
    cores — the simulated restart finishes with its slowest core. *)

val drive :
  ?config:Arch.Config.t -> ?mode:Arch.Persist.mode -> ?journal_io:bool ->
  ?obs:Capri_obs.Obs.t -> ?threads:Executor.thread_spec list ->
  ?on_crash:(Executor.crash -> int array -> unit) -> crash_at:int list ->
  Capri_compiler.Compiled.t -> Executor.result
(** [drive ~crash_at compiled] {!Executor.start}s [compiled]'s program
    (the start options as there; [threads] defaults to the main function,
    and [compiled]'s store threshold is checked) and runs it to each
    crash point in turn (each counted in global instructions within its
    own session): it applies the recovery blocks per core, calls
    [on_crash] (default: nothing) with the crash and the per-core block
    counts, and {!Executor.resume}s. It runs the last session to the end
    and returns its result; a session that finishes before its crash
    point ends the drive. Outputs, acks and clocks of the crashed
    sessions are the hook's to collect; each resume restarts the
    session in place, so a drive builds one machine. *)
