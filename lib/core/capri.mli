(** Capri: compiler and architecture support for whole-system persistence.

    Top-level facade tying the pieces together. Typical use:

    {[
      let program = (* build IR with Capri.Builder *) in
      let compiled = Capri.compile program in
      let result = Capri.run compiled in
      let baseline = Capri.run_volatile program in
      Printf.printf "WSP overhead: %.1f%%\n"
        (100. *. (float result.cycles /. float baseline.cycles -. 1.))
    ]}

    Crash testing:

    {[
      match Capri.crash_sweep compiled with
      | Ok report -> (* every crash point recovered correctly *)
      | Error f -> (* a crash schedule broke equivalence *)
    ]} *)

(** {1 Re-exported modules} *)

module Reg = Capri_ir.Reg
module Label = Capri_ir.Label
module Instr = Capri_ir.Instr
module Block = Capri_ir.Block
module Func = Capri_ir.Func
module Program = Capri_ir.Program
module Builder = Capri_ir.Builder
module Parser = Capri_ir.Parser
module Validate = Capri_ir.Validate
module Liveness = Capri_dataflow.Liveness
module Inter_liveness = Capri_dataflow.Inter_liveness
module Dom = Capri_dataflow.Dom
module Loops = Capri_dataflow.Loops
module Options = Capri_compiler.Options
module Region_map = Capri_compiler.Region_map
module Compiled = Capri_compiler.Compiled
module Pipeline = Capri_compiler.Pipeline
module Config = Capri_arch.Config
module Memory = Capri_arch.Memory
module Persist = Capri_arch.Persist
module Hierarchy = Capri_arch.Hierarchy
module Executor = Capri_runtime.Executor
module Profile = Capri_runtime.Profile
module Recovery = Capri_runtime.Recovery
module Verify = Capri_runtime.Verify

(** {1 Convenience entry points} *)

val compile : ?options:Options.t -> Program.t -> Compiled.t
(** Compile with all Capri optimizations at the default threshold (256)
    unless overridden. *)

val run :
  ?config:Config.t -> ?mode:Persist.mode -> ?obs:Capri_obs.Obs.t ->
  ?threads:Executor.thread_spec list -> Compiled.t -> Executor.result
(** Crash-free run of a compiled program under the Capri architecture,
    asserting the region store-threshold invariant throughout. [obs]
    (default null) threads an observability bundle through the run. *)

val run_volatile :
  ?config:Config.t -> ?threads:Executor.thread_spec list -> Program.t ->
  Executor.result
(** Baseline: the uncompiled source program with persistence off — the
    normalization denominator of the paper's figures. *)

val crash_sweep :
  ?config:Config.t -> ?threads:Executor.thread_spec list -> ?stride:int ->
  Compiled.t -> (Verify.report, Verify.failure) result
(** See {!Verify.crash_sweep}. *)

val compile_pgo :
  ?options:Options.t -> ?config:Config.t ->
  ?threads:Executor.thread_spec list -> Program.t -> Compiled.t
(** Profile-guided compilation, implementing the paper's Section 6.3
    future work ("devise a new algorithm to formulate regions with having
    more instructions"): a profiling run with unrolling disabled measures
    each unknown-trip loop's typical iteration count; the production build
    then unrolls by the measured count (within the threshold and
    code-growth caps), so one region covers a typical loop execution
    instead of the static threshold/2 guess. *)

val overhead :
  baseline:Executor.result -> Executor.result -> float
(** [cycles / baseline.cycles] — the normalized execution time the paper's
    Figures 8 and 9 plot (1.0 = no overhead). *)
