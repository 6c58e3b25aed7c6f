(* A multi-threaded scientific kernel (the workloads library's `ocean`
   grid relaxation) under whole-system persistence: four threads, barrier
   synchronization, no persistence-aware code anywhere — and yet the
   computation survives a mid-run power failure on all cores at once.

     dune exec examples/stencil_crash.exe
*)

open Capri
module W = Capri_workloads

let () =
  let kernel = W.Splash3.ocean ~threads:4 ~scale:6 () in
  Printf.printf "kernel: %s\n  %s\n" kernel.W.Kernel.name
    kernel.W.Kernel.description;

  let baseline =
    run_volatile ~threads:kernel.W.Kernel.threads kernel.W.Kernel.program
  in
  let compiled = compile kernel.W.Kernel.program in
  let result = run ~threads:kernel.W.Kernel.threads compiled in
  Printf.printf "volatile: %d cycles | capri: %d cycles (overhead %.1f%%)\n"
    baseline.Executor.cycles result.Executor.cycles
    (100.0 *. (overhead ~baseline result -. 1.0));
  Format.printf "%a@." Compiled.pp_summary compiled;

  (* Power-fail all four cores mid-computation and drive the recovery.
     Every core resumes from its own last committed region boundary: the
     hook sees the durable image that records them. *)
  let crash_point = result.Executor.instrs / 2 in
  let crash = ref None in
  let resumed =
    Recovery.drive
      ~on_crash:(fun c _ -> crash := Some c)
      ~crash_at:[ crash_point ] compiled
      (Recovery.machine ~threads:kernel.W.Kernel.threads compiled)
  in
  match !crash with
  | None -> print_endline "the kernel finished before the power failure"
  | Some { Executor.image; at_cycle; outputs_before; _ } ->
    Printf.printf "crashed all cores at instruction %d (1 recovery)\n"
      crash_point;
    (* output emitted before the failure had already left the machine *)
    let crashed =
      { resumed with
        Executor.outputs =
          Array.map2 ( @ ) outputs_before resumed.Executor.outputs }
    in
    (match Verify.check_equivalence ~reference:result ~candidate:crashed with
     | Ok () ->
       print_endline "grid state after recovery matches the crash-free run"
     | Error e -> Printf.printf "MISMATCH: %s\n" e);
    Printf.printf "power failed at cycle %d; per-core resume points:\n"
      at_cycle;
    Array.iteri
      (fun core resume ->
        match (resume : Persist.resume) with
        | Persist.Resume { boundary; sp } ->
          Printf.printf "  core %d -> boundary #%d (sp=%#x)\n" core boundary
            sp
        | Persist.Done -> Printf.printf "  core %d -> already finished\n" core
        | Persist.Never_started ->
          Printf.printf "  core %d -> restart from entry\n" core)
      image.Persist.resume
