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
(** Crash-free run of the compiled program (default mode: [Capri]) on a
    machine of its own ({!Recovery.machine}), so later drives can be
    checked against it. Pass an [obs] bundle with a tracer to record the
    region timeline — the fuzzer's schedule enumeration reads boundary
    instruction indices from it ({!Executor.boundary_instrs}). *)

val run_with_crashes :
  crash_at:int list -> Capri_compiler.Compiled.t -> Executor.session ->
  Executor.result * int * int
(** [run_with_crashes ~crash_at compiled machine] {!Recovery.drive}s
    [machine] (a machine of [compiled]'s program, {!Recovery.machine};
    its mode is the persistence design point under test, and [Volatile]
    is not crash-recoverable), injecting a crash + recovery at each listed
    global instruction count (interpreted within each successive resumed
    run). Returns the final result, with every crash's [outputs_before]
    prepended to its output streams, the recoveries performed and the
    recovery blocks executed. The result's [memory] and [profile] are
    [machine]'s until its next drive. *)

val check_equivalence :
  reference:Executor.result -> candidate:Executor.result ->
  (unit, string) result
(** Final memory equal, final registers equal per core, and each core's
    reference output stream is a subsequence of the candidate's (crash
    re-emission allowed). Raises [Invalid_argument] when both results
    carry the same memory (physically): a machine's later drive has
    taken over the reference's memory, and the check would compare it
    with itself. *)

val crash_sweep :
  ?config:Arch.Config.t -> ?threads:Executor.thread_spec list ->
  ?stride:int -> ?points:int -> Capri_compiler.Compiled.t ->
  (report, failure) result
(** Crash once at every [stride]-th dynamic instruction (default: the
    crash-free run's instruction count over [points], default 50, so
    about [points] crash points) and verify equivalence each time. The
    crash-free {!reference} runs once, on its own machine; the
    candidates all run on one other machine. *)
