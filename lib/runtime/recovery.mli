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
      the slot arrays. *)

module Arch = Capri_arch

val apply_recovery_blocks_per_core :
  Capri_compiler.Compiled.t -> Arch.Persist.image -> int array
(** Mutates the image's slot arrays in place; returns how many recovery
    blocks ran on each core. Runs on the calling domain, core by core (a
    core's blocks touch only its own slot array). The per-core counts
    feed the restart-time model, which charges the {e maximum} over
    cores — the simulated restart finishes with its slowest core. *)

val apply_recovery_blocks :
  Capri_compiler.Compiled.t -> Arch.Persist.image -> int
(** Total over {!apply_recovery_blocks_per_core}. *)
