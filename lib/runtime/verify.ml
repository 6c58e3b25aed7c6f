module Arch = Capri_arch
module Compiled = Capri_compiler.Compiled

type report = {
  crash_points : int;
  recoveries : int;
  recovery_blocks_run : int;
  stale_reads : int;
}

type failure = { crash_at : int list; reason : string }

let reference ?config ?mode ?obs ?threads compiled =
  Recovery.drive ~crash_at:[] compiled
    (Recovery.machine ?config ?mode ?obs ?threads compiled)

let run_with_crashes ~crash_at compiled machine =
  let before = ref [] and blocks = ref 0 in
  let on_crash (crash : Executor.crash) per_core =
    before := crash.Executor.outputs_before :: !before;
    blocks := !blocks + Array.fold_left ( + ) 0 per_core
  in
  let r = Recovery.drive ~on_crash ~crash_at compiled machine in
  (* Outputs emitted before each crash already left the machine: they
     lead each core's stream. *)
  let outputs =
    List.fold_left
      (fun outs b -> Array.map2 ( @ ) b outs)
      r.Executor.outputs !before
  in
  ({ r with Executor.outputs }, List.length !before, !blocks)

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
  if reference.Executor.memory == candidate.Executor.memory then
    invalid_arg
      "Verify.check_equivalence: reference and candidate share one machine's \
       memory";
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

let crash_sweep ?config ?threads ?stride ?(points = 50) compiled =
  let ref_result = reference ?config ?threads compiled in
  let total = ref_result.Executor.instrs in
  let stride =
    match stride with Some s -> max 1 s | None -> max 1 (total / points)
  in
  (* The reference keeps its own machine; the candidates share one. *)
  let machine = Recovery.machine ?config ?threads compiled in
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
         run_with_crashes ~crash_at:[ !at ] compiled machine
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
