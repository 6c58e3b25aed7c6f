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

let compile ?(options = Options.default) program =
  Pipeline.compile options program

let run ?(config = Config.sim_default) ?(mode = Persist.Capri) ?obs ?threads
    (compiled : Compiled.t) =
  let threads =
    match threads with
    | Some t -> t
    | None -> [ Executor.main_thread compiled.Compiled.program ]
  in
  let session =
    Executor.start ~config ~mode ?obs
      ~check_threshold:compiled.Compiled.options.Options.threshold
      ~program:compiled.Compiled.program ~threads ()
  in
  match Executor.run session with
  | Executor.Finished r -> r
  | Executor.Crashed _ -> assert false

let run_volatile ?(config = Config.sim_default) ?threads program =
  let threads =
    match threads with Some t -> t | None -> [ Executor.main_thread program ]
  in
  let session =
    Executor.start ~config ~mode:Persist.Volatile ~program ~threads ()
  in
  match Executor.run session with
  | Executor.Finished r -> r
  | Executor.Crashed _ -> assert false

let crash_sweep ?config ?threads ?stride compiled =
  Verify.crash_sweep ?config ?threads ?stride compiled

(* Profile-guided compilation (the paper's Section 6.3 future work):
   measure each unknown-trip loop's typical iteration count with an
   un-unrolled profiling build, then let the measured counts choose the
   speculative unroll factors so one region covers a typical loop
   execution. *)
let compile_pgo ?(options = Options.default) ?config ?threads program =
  let profile_options = { options with Options.unroll = false } in
  let profiled = Pipeline.compile profile_options program in
  let result = run ?config ?threads profiled in
  let map = profiled.Compiled.regions in
  let instances id =
    match Hashtbl.find_opt result.Executor.profile id with
    | Some bp -> bp.Executor.instances
    | None -> 0
  in
  (* Mean trips of the loop headed at a region head = its instance count
     over the instance counts of the regions entering it from outside. *)
  let trips_of_header fname head_name =
    let head = Label.of_string head_name in
    let f = Program.find_func profiled.Compiled.program fname in
    match Region_map.region_of_block map ~func:fname head with
    | exception Not_found -> None
    | id ->
      let _region = Region_map.find map id in
      let entries =
        List.fold_left
          (fun acc (r : Region_map.region) ->
            if r.Region_map.id = id || r.Region_map.func <> fname then acc
            else if
              Label.Set.exists
                (fun l ->
                  List.exists (Label.equal head)
                    (Instr.term_succs (Func.find f l).Block.term))
                r.Region_map.members
            then acc + instances r.Region_map.id
            else acc)
          0 (Region_map.regions map)
      in
      let n = instances id in
      if n = 0 || entries = 0 then None
      else Some (max 1 ((n + entries - 1) / entries))
  in
  Pipeline.compile ~unroll_hints:trips_of_header options program

let overhead ~(baseline : Executor.result) (result : Executor.result) =
  float_of_int result.Executor.cycles /. float_of_int baseline.Executor.cycles
