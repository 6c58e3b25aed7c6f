(** The fuzzer's two differential oracles. *)

module Arch = Capri_arch
module Opt = Capri_compiler.Options
module Executor = Capri_runtime.Executor

val option_matrix : Opt.t list
(** All 16 on/off combinations of ckpt, unroll, prune and licm at the
    default threshold — including non-monotone pass subsets the paper's
    Figure 9 prefixes never exercise. *)

val thresholds : int list
(** Region store thresholds the fuzzer varies over. *)

val options_string : Opt.t -> string

val crash_options_of_seed : int -> Opt.t
(** Seed-varied crash-capable compiler configuration ([ckpt] forced on —
    the bare region configuration is not failure-atomic by design). *)

val check_crash :
  reference:Executor.result ->
  Capri_compiler.Compiled.t ->
  Executor.session ->
  int list ->
  (unit, string) result
(** [check_crash ~reference compiled machine schedule] drives [machine]
    (a machine of [compiled]'s program, {!Capri_runtime.Recovery.machine},
    in the persist mode under test) through the crash schedule and checks
    indistinguishability from the crash-free [reference], which must come
    from a machine of its own. *)

val run_source :
  ?config:Arch.Config.t ->
  threads:Executor.thread_spec list ->
  Capri_ir.Program.t ->
  Executor.result
(** Volatile-mode run of the uncompiled source IR — the differential
    oracle's ground truth (compute it once per program, reuse across the
    option matrix). *)

val check_differential :
  ?config:Arch.Config.t ->
  threads:Executor.thread_spec list ->
  source:Executor.result ->
  Opt.t ->
  Capri_ir.Program.t ->
  (unit, string) result
(** Compile [program] under the given options and execute it in Volatile
    mode: data-segment memory, output streams and per-core r0 must match
    the source run exactly (no crash machinery involved, so no
    re-emission slack). Raises [Invalid_argument] when [source] carries
    the compiled run's memory (physically): the comparison would be of a
    memory with itself. *)
