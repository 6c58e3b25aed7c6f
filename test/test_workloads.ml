(* The 19-kernel suite: every kernel builds, runs, gives identical results
   under Capri and volatile execution, respects the threshold invariant,
   and (a representative subset) recovers from crashes. *)

open Capri
module W = Capri_workloads

let scale = W.Suite.test_scale

let test_registry_complete () =
  Alcotest.(check int) "19 kernels" 19 (List.length W.Suite.names);
  let kernels = W.Suite.all ~scale () in
  Alcotest.(check int) "all buildable" 19 (List.length kernels);
  Alcotest.check_raises "unknown kernel" Not_found (fun () ->
      ignore (W.Suite.by_name ~scale "nonesuch"));
  Alcotest.(check (list string)) "names = all's names, in order"
    (List.map (fun (k : W.Kernel.t) -> k.W.Kernel.name) kernels)
    W.Suite.names;
  (* [by_name] builds the same program as [all], threads honoured *)
  let shown (k : W.Kernel.t) =
    ( Format.asprintf "%a" Program.pp k.W.Kernel.program,
      List.length k.W.Kernel.threads )
  in
  List.iter2
    (fun name k ->
      Alcotest.(check (pair string int)) ("by_name " ^ name) (shown k)
        (shown (W.Suite.by_name ~scale name)))
    W.Suite.names kernels;
  let ocean = W.Suite.by_name ~threads:2 ~scale "ocean" in
  Alcotest.(check (pair string int)) "by_name ~threads:2 ocean"
    (shown
       (List.find
          (fun (k : W.Kernel.t) -> k.W.Kernel.name = "ocean")
          (W.Suite.all ~threads:2 ~scale ())))
    (shown ocean);
  Alcotest.(check int) "ocean at 2 threads" 2 (List.length ocean.W.Kernel.threads);
  Alcotest.(check int) "spec count" 5
    (List.length (W.Suite.of_suite W.Kernel.Spec ~scale));
  Alcotest.(check int) "stamp count" 5
    (List.length (W.Suite.of_suite W.Kernel.Stamp ~scale));
  Alcotest.(check int) "splash3 count" 9
    (List.length (W.Suite.of_suite W.Kernel.Splash3 ~scale))

let test_each_kernel_valid () =
  List.iter
    (fun (k : W.Kernel.t) -> Validate.check_exn k.W.Kernel.program)
    (W.Suite.all ~scale ())

(* Task-queue kernels assign work by arrival order, which depends on the
   timing model, so their per-thread outputs are not comparable across
   modes (memory still must agree). *)
let timing_dependent_outputs = [ "radiosity" ]

let test_capri_matches_volatile () =
  List.iter
    (fun (k : W.Kernel.t) ->
      let vol =
        run_volatile ~threads:k.W.Kernel.threads k.W.Kernel.program
      in
      let compiled = compile k.W.Kernel.program in
      let res = run ~threads:k.W.Kernel.threads compiled in
      Alcotest.(check bool) (k.W.Kernel.name ^ " memory") true
        (Memory.equal ~from:Builder.data_base vol.Executor.memory
           res.Executor.memory);
      if not (List.mem k.W.Kernel.name timing_dependent_outputs) then
        Alcotest.(check bool) (k.W.Kernel.name ^ " outputs") true
          (vol.Executor.outputs = res.Executor.outputs))
    (W.Suite.all ~scale ())

let test_thresholds_hold_for_all () =
  List.iter
    (fun (k : W.Kernel.t) ->
      List.iter
        (fun threshold ->
          let options =
            Capri_compiler.Options.with_threshold threshold
              Capri_compiler.Options.default
          in
          let compiled = Pipeline.compile options k.W.Kernel.program in
          let config = Config.with_threshold threshold Config.sim_default in
          (* run asserts the dynamic invariant internally *)
          ignore (run ~config ~threads:k.W.Kernel.threads compiled))
        [ 32; 256 ])
    (W.Suite.all ~scale ())

let test_single_thread_kernels_crash_recover () =
  List.iter
    (fun name ->
      let k = W.Suite.by_name ~scale:2 name in
      let compiled = compile k.W.Kernel.program in
      match crash_sweep ~threads:k.W.Kernel.threads ~stride:97 compiled with
      | Ok _ -> ()
      | Error f ->
        Alcotest.failf "%s crash at %s: %s" name
          (String.concat "," (List.map string_of_int f.Verify.crash_at))
          f.Verify.reason)
    [ "505.mcf_r"; "541.leela_r"; "519.lbm_r"; "genome"; "vacation";
      "531.deepsjeng_r" ]

let test_multithread_kernels_crash_recover () =
  List.iter
    (fun (k : W.Kernel.t) ->
      let compiled = compile k.W.Kernel.program in
      let reference = Verify.reference ~threads:k.W.Kernel.threads compiled in
      let n = reference.Executor.instrs in
      List.iter
        (fun at ->
          let result, _, _ =
            Verify.run_with_crashes ~crash_at:[ at ] compiled
              (Recovery.machine ~threads:k.W.Kernel.threads compiled)
          in
          match Verify.check_equivalence ~reference ~candidate:result with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s crash at %d: %s" k.W.Kernel.name at e)
        [ n / 3; (2 * n) / 3 ])
    [ W.Splash3.ocean ~threads:4 ~scale:2 ();
      W.Splash3.radix ~threads:4 ~scale:2 ();
      W.Splash3.fmm ~threads:4 ~scale:2 () ]

let test_kernels_have_diverse_shapes () =
  (* The evaluation depends on structural diversity: store densities and
     region sizes must differ meaningfully across the suite. *)
  let stats =
    List.map
      (fun (k : W.Kernel.t) ->
        let compiled = compile k.W.Kernel.program in
        let res = run ~threads:k.W.Kernel.threads compiled in
        let rs = res.Executor.region_stats in
        let stores_per_region =
          float_of_int rs.Executor.total_stores
          /. float_of_int (max 1 rs.Executor.regions_executed)
        in
        (k.W.Kernel.name, stores_per_region))
      (W.Suite.all ~scale ())
  in
  let values = List.map snd stats in
  let lo, hi = Capri_util.Stat.min_max values in
  Alcotest.(check bool) "store densities spread" true (hi > 3.0 *. lo)

let test_scaling_monotone () =
  (* Bigger scale, more work. *)
  List.iter
    (fun name ->
      let small = W.Suite.by_name ~scale:2 name in
      let big = W.Suite.by_name ~scale:6 name in
      let run1 =
        run_volatile ~threads:small.W.Kernel.threads small.W.Kernel.program
      in
      let run2 =
        run_volatile ~threads:big.W.Kernel.threads big.W.Kernel.program
      in
      Alcotest.(check bool) (name ^ " scales") true
        (run2.Executor.instrs > run1.Executor.instrs))
    [ "505.mcf_r"; "ssca2"; "ocean" ]

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "all kernels validate" `Quick test_each_kernel_valid;
    Alcotest.test_case "capri matches volatile" `Quick
      test_capri_matches_volatile;
    Alcotest.test_case "thresholds hold everywhere" `Quick
      test_thresholds_hold_for_all;
    Alcotest.test_case "single-thread crash recovery" `Quick
      test_single_thread_kernels_crash_recover;
    Alcotest.test_case "multithread crash recovery" `Quick
      test_multithread_kernels_crash_recover;
    Alcotest.test_case "structural diversity" `Quick
      test_kernels_have_diverse_shapes;
    Alcotest.test_case "scaling is monotone" `Quick test_scaling_monotone;
  ]
