(** End-to-end whole-system-persistence verification.

    The central property (Section 2.2): for any program, crashing at any
    point and recovering must leave execution indistinguishable from a
    crash-free run — same final memory and same final registers, with
    outputs re-emitted at most for interrupted regions (the I/O caveat of
    Section 3.3). The verifier runs the crash-free reference once, then
    replays with injected crashes (possibly several in one run) and
    compares. *)

module Arch = Capri_arch

type report = {
  crash_points : int;  (** crash schedules exercised *)
  recoveries : int;  (** total recoveries performed *)
  recovery_blocks_run : int;
  stale_reads : int;
}

type failure = {
  crash_at : int list;  (** instruction indices of the failing schedule *)
  reason : string;
}

val reference :
  ?config:Arch.Config.t -> ?mode:Arch.Persist.mode -> ?obs:Capri_obs.Obs.t ->
  ?threads:Executor.thread_spec list ->
  Capri_compiler.Compiled.t -> Executor.result
(** Crash-free run of the compiled program (default mode: [Capri]). Pass
    an [obs] bundle with a tracer to record the region timeline — the
    fuzzer's schedule enumeration reads boundary instruction indices
    from it ({!Executor.boundary_instrs}). *)

val run_with_crashes :
  ?config:Arch.Config.t -> ?mode:Arch.Persist.mode ->
  ?threads:Executor.thread_spec list ->
  crash_at:int list -> Capri_compiler.Compiled.t ->
  Executor.result * int * int
(** Runs, injecting a crash + recovery at each listed global instruction
    count (interpreted within each successive resumed run). Returns the
    final result, recoveries performed, and recovery blocks executed.
    [mode] selects the persistence design point under test (default
    [Capri]; [Volatile] is not crash-recoverable and makes no sense
    here). *)

val check_equivalence :
  reference:Executor.result -> candidate:Executor.result ->
  (unit, string) result
(** Final memory equal, final registers equal per core, and each core's
    reference output stream is a subsequence of the candidate's (crash
    re-emission allowed). *)

val crash_sweep :
  ?config:Arch.Config.t -> ?threads:Executor.thread_spec list ->
  ?stride:int -> Capri_compiler.Compiled.t -> (report, failure) result
(** Crash once at every [stride]-th dynamic instruction (default: a
    stride that yields about 50 crash points) and verify equivalence each
    time. *)
