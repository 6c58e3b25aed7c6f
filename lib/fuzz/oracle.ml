(* The fuzzer's two oracles.

   Crash oracle — the paper's central claim (Section 2.2): crash at any
   schedule, recover, resume; the result must be indistinguishable from
   the crash-free reference (same final memory, same r0, outputs
   reference-subsuming). Runs under any crash-recoverable persist mode.

   Differential oracle — the compiler must never change semantics: the
   compiled program, executed with persistence off (Volatile mode, so
   boundaries and checkpoint stores are inert), must behave exactly like
   the uncompiled source IR. This catches miscompiles in unroll, prune,
   LICM and region formation independently of any crash machinery. *)

module Arch = Capri_arch
module Opt = Capri_compiler.Options
module Compiled = Capri_compiler.Compiled
module Pipeline = Capri_compiler.Pipeline
module Executor = Capri_runtime.Executor
module Verify = Capri_runtime.Verify
module Builder = Capri_ir.Builder

(* ---------------- option matrices ---------------- *)

let bools = [ false; true ]

(* Every subset of the optimization passes, not just the paper's
   monotone Figure 9 prefixes: pass interactions (e.g. prune without
   unroll, licm without prune) each get compiled and checked. *)
let option_matrix =
  List.concat_map
    (fun ckpt ->
      List.concat_map
        (fun unroll ->
          List.concat_map
            (fun prune ->
              List.map
                (fun licm -> { Opt.default with Opt.ckpt; unroll; prune; licm })
                bools)
            bools)
        bools)
    bools

let thresholds = [ 16; 64; 256 ]

let pp_options fmt (o : Opt.t) =
  Format.fprintf fmt "{threshold=%d;%s%s%s%s}" o.Opt.threshold
    (if o.Opt.ckpt then " ckpt" else "")
    (if o.Opt.unroll then " unroll" else "")
    (if o.Opt.prune then " prune" else "")
    (if o.Opt.licm then " licm" else "")

let options_string o = Format.asprintf "%a" pp_options o

(* Seed-varied crash-capable configuration: checkpoints must be on (the
   bare region config is not failure-atomic by design, Figure 9). *)
let crash_options_of_seed seed =
  let combos = Array.of_list option_matrix in
  let o = combos.(seed mod Array.length combos) in
  let o = if o.Opt.ckpt then o else { o with Opt.ckpt = true } in
  let ts = Array.of_list thresholds in
  Opt.with_threshold ts.((seed / 31) mod Array.length ts) o

(* ---------------- crash oracle ---------------- *)

let check_crash ~(reference : Executor.result) compiled machine schedule =
  match Verify.run_with_crashes ~crash_at:schedule compiled machine with
  | result, _recoveries, _blocks ->
    Verify.check_equivalence ~reference ~candidate:result
  | exception Failure reason -> Error (Printf.sprintf "exception: %s" reason)

(* ---------------- differential oracle ---------------- *)

let same_outputs (a : Executor.result) (b : Executor.result) =
  a.Executor.outputs = b.Executor.outputs

let same_r0 (a : Executor.result) (b : Executor.result) =
  Array.length a.Executor.final_regs = Array.length b.Executor.final_regs
  && Array.for_all2
       (fun ra rb -> ra.(0) = rb.(0))
       a.Executor.final_regs b.Executor.final_regs

let check_differential ?config ~threads ~(source : Executor.result) options
    program =
  match Pipeline.compile options program with
  | exception e ->
    Error
      (Printf.sprintf "compile raised %s under %s" (Printexc.to_string e)
         (options_string options))
  | compiled -> (
    let compiled_result =
      Capri.run_volatile ?config ~threads compiled.Compiled.program
    in
    if source.Executor.memory == compiled_result.Executor.memory then
      invalid_arg
        "Oracle.check_differential: the source and compiled runs share one \
         machine's memory";
    (* Stacks (below the data segment) legitimately differ: compiled
       code spills checkpoint bookkeeping; compare the data segment. *)
    if
      not
        (Arch.Memory.equal ~from:Builder.data_base source.Executor.memory
           compiled_result.Executor.memory)
    then
      let diffs =
        Arch.Memory.diff ~from:Builder.data_base source.Executor.memory
          compiled_result.Executor.memory
      in
      Error
        (Printf.sprintf "%s: final memory differs (%d words)"
           (options_string options) (List.length diffs))
    else if not (same_outputs source compiled_result) then
      Error
        (Printf.sprintf "%s: output streams differ" (options_string options))
    else if not (same_r0 source compiled_result) then
      Error (Printf.sprintf "%s: final r0 differs" (options_string options))
    else Ok ())

let run_source ?config ~threads program = Capri.run_volatile ?config ~threads program
