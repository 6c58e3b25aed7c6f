module Arch = Capri_arch
module Compiled = Capri_compiler.Compiled

type report = {
  crash_points : int;
  recoveries : int;
  recovery_blocks_run : int;
  stale_reads : int;
}

type failure = { crash_at : int list; reason : string }

let default_threads (compiled : Compiled.t) =
  [ Executor.main_thread compiled.Compiled.program ]

let threshold_of (compiled : Compiled.t) =
  compiled.Compiled.options.Capri_compiler.Options.threshold

let reference ?(config = Arch.Config.sim_default) ?(mode = Arch.Persist.Capri)
    ?obs ?threads compiled =
  let threads =
    match threads with Some t -> t | None -> default_threads compiled
  in
  let session =
    Executor.start ~config ~mode ?obs
      ~check_threshold:(threshold_of compiled)
      ~program:compiled.Compiled.program ~threads ()
  in
  match Executor.run session with
  | Executor.Finished r -> r
  | Executor.Crashed _ -> assert false

let run_with_crashes ?(config = Arch.Config.sim_default)
    ?(mode = Arch.Persist.Capri) ?threads ~crash_at compiled =
  let threads =
    match threads with Some t -> t | None -> default_threads compiled
  in
  let recoveries = ref 0 and blocks = ref 0 in
  (* Outputs emitted before each crash are already outside the machine:
     collect them across sessions. *)
  let emitted : int list array ref = ref [||] in
  let prepend outputs_before =
    if Array.length !emitted = 0 then
      emitted := Array.map (fun o -> List.rev o) outputs_before
    else
      Array.iteri
        (fun i o -> !emitted.(i) <- List.rev_append o !emitted.(i))
        outputs_before
  in
  let finalize (r : Executor.result) =
    if Array.length !emitted = 0 then r
    else
      {
        r with
        Executor.outputs =
          Array.mapi
            (fun i o -> List.rev_append !emitted.(i) o)
            r.Executor.outputs;
      }
  in
  let rec go session = function
    | [] -> (
      match Executor.run session with
      | Executor.Finished r -> finalize r
      | Executor.Crashed _ -> assert false)
    | at :: rest -> (
      match Executor.run ~crash_at_instr:at session with
      | Executor.Finished r ->
        (* The program ended before the crash point: nothing to crash. *)
        ignore rest;
        finalize r
      | Executor.Crashed { image; outputs_before; _ } ->
        incr recoveries;
        prepend outputs_before;
        blocks := !blocks + Recovery.apply_recovery_blocks compiled image;
        let session =
          Executor.resume ~config ~mode
            ~check_threshold:(threshold_of compiled) ~compiled ~image ~threads
            ()
        in
        go session rest)
  in
  let session =
    Executor.start ~config ~mode
      ~check_threshold:(threshold_of compiled)
      ~program:compiled.Compiled.program ~threads ()
  in
  let result = go session crash_at in
  (result, !recoveries, !blocks)

let is_subsequence small big =
  let rec go s b =
    match (s, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: s', y :: b' -> if x = y then go s' b' else go s b'
  in
  go small big

let check_equivalence ~(reference : Executor.result)
    ~(candidate : Executor.result) =
  if not (Arch.Memory.equal reference.Executor.memory candidate.Executor.memory)
  then begin
    let diffs =
      Arch.Memory.diff reference.Executor.memory candidate.Executor.memory
    in
    let show (addr, a, b) = Printf.sprintf "[%#x]: %d vs %d" addr a b in
    Error
      (Printf.sprintf "final memory differs (%d words), e.g. %s"
         (List.length diffs)
         (String.concat ", " (List.map show (List.filteri (fun i _ -> i < 3) diffs))))
  end
  else begin
    let cores = Array.length reference.Executor.final_regs in
    (* Recovery reloads the whole architectural register file from the
       slot arrays, which only tracks *live* values — registers dead at
       the crash legitimately hold different garbage afterwards. The
       observable register state is the return-value convention (r0). *)
    let reg_mismatch = ref None in
    for core = 0 to cores - 1 do
      if
        !reg_mismatch = None
        && reference.Executor.final_regs.(core).(0)
           <> candidate.Executor.final_regs.(core).(0)
      then reg_mismatch := Some core
    done;
    match !reg_mismatch with
    | Some core ->
      Error (Printf.sprintf "final r0 differs on core %d" core)
    | None ->
      let out_bad = ref None in
      for core = 0 to cores - 1 do
        if
          !out_bad = None
          && not
               (is_subsequence
                  reference.Executor.outputs.(core)
                  candidate.Executor.outputs.(core))
        then out_bad := Some core
      done;
      (match !out_bad with
       | Some core ->
         Error
           (Printf.sprintf
              "output stream on core %d is not reference-subsuming" core)
       | None -> Ok ())
  end

let crash_sweep ?(config = Arch.Config.sim_default) ?threads ?stride compiled =
  let threads =
    match threads with Some t -> t | None -> default_threads compiled
  in
  let ref_result = reference ~config ~threads compiled in
  let total = ref_result.Executor.instrs in
  let stride =
    match stride with Some s -> max 1 s | None -> max 1 (total / 50)
  in
  let crash_points = ref 0 in
  let recoveries = ref 0 in
  let blocks = ref 0 in
  let stale = ref 0 in
  let failure = ref None in
  let at = ref 1 in
  while !failure = None && !at < total do
    incr crash_points;
    (try
       let result, recs, blks =
         run_with_crashes ~config ~threads ~crash_at:[ !at ] compiled
       in
       recoveries := !recoveries + recs;
       blocks := !blocks + blks;
       stale := !stale + result.Executor.stale_reads;
       match check_equivalence ~reference:ref_result ~candidate:result with
       | Ok () -> ()
       | Error reason -> failure := Some { crash_at = [ !at ]; reason }
     with Failure reason -> failure := Some { crash_at = [ !at ]; reason });
    at := !at + stride
  done;
  match !failure with
  | Some f -> Error f
  | None ->
    Ok
      {
        crash_points = !crash_points;
        recoveries = !recoveries;
        recovery_blocks_run = !blocks;
        stale_reads = !stale;
      }
