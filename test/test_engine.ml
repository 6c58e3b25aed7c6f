(* Differential tests: the compiled closure tier against the AST-walking
   interpreter. The two engines must be indistinguishable — not just in
   final memory, but in cycle counts, dynamic-instruction accounting,
   persist/hierarchy statistics, output/ack streams, crash images and
   recovery results. Any divergence means the compiled tier changed
   simulated semantics, not just wall-clock speed. *)

open Capri
open Helpers
module Opt = Capri_compiler.Options
module Gen = Capri_workloads.Gen

(* Same seed-driven option mix as the qcheck suite, forced failure-atomic
   so crash schedules are meaningful. *)
let options_of_seed seed =
  let thresholds = [| 16; 32; 64; 256 |] in
  let configs = Array.of_list Opt.fig9_configs in
  let threshold = thresholds.(seed mod Array.length thresholds) in
  let _, options = configs.((seed / 7) mod Array.length configs) in
  let options = Opt.with_threshold threshold options in
  if options.Opt.ckpt then options else { options with Opt.ckpt = true }

let run_engine ?config ?(mode = Persist.Capri) ?crash_at_instr ?max_steps
    ~engine (compiled : Compiled.t) threads =
  let session =
    Executor.start ?config ~mode ~engine
      ~check_threshold:compiled.Compiled.options.Opt.threshold
      ~program:compiled.Compiled.program ~threads ()
  in
  Executor.run ?crash_at_instr ?max_steps session

(* Canonical view of the per-boundary profile: hashtable bucket layout
   may differ, bindings may not. *)
let profile_list (p : (int, Executor.boundary_profile) Hashtbl.t) =
  Hashtbl.fold
    (fun k (bp : Executor.boundary_profile) acc ->
      ( k, bp.Executor.instances, bp.Executor.p_instrs, bp.Executor.p_stores,
        bp.Executor.p_max_stores )
      :: acc)
    p []
  |> List.sort compare

(* Field-by-field identity between an interpreter result [a] and a
   compiled-tier result [b]. *)
let check_same ctx (a : Executor.result) (b : Executor.result) =
  let ck name = Alcotest.(check int) (ctx ^ ": " ^ name) in
  ck "cycles" a.Executor.cycles b.Executor.cycles;
  ck "instrs" a.Executor.instrs b.Executor.instrs;
  ck "payload_instrs" a.Executor.payload_instrs b.Executor.payload_instrs;
  ck "stores" a.Executor.stores b.Executor.stores;
  ck "ckpt_stores" a.Executor.ckpt_stores b.Executor.ckpt_stores;
  ck "boundaries" a.Executor.boundaries b.Executor.boundaries;
  ck "stale_reads" a.Executor.stale_reads b.Executor.stale_reads;
  let cb name av bv = Alcotest.(check bool) (ctx ^ ": " ^ name) true (av = bv) in
  cb "region_stats" a.Executor.region_stats b.Executor.region_stats;
  cb "profile" (profile_list a.Executor.profile) (profile_list b.Executor.profile);
  cb "outputs" a.Executor.outputs b.Executor.outputs;
  cb "acks" a.Executor.acks b.Executor.acks;
  cb "final_regs" a.Executor.final_regs b.Executor.final_regs;
  cb "persist_stats" a.Executor.persist_stats b.Executor.persist_stats;
  cb "hier_stats" a.Executor.hier_stats b.Executor.hier_stats;
  Alcotest.(check bool)
    (ctx ^ ": memory") true
    (Memory.equal a.Executor.memory b.Executor.memory)

let check_same_crash ctx (a : Executor.crash) (b : Executor.crash) =
  let ck name = Alcotest.(check int) (ctx ^ ": " ^ name) in
  ck "at_instr" a.Executor.at_instr b.Executor.at_instr;
  ck "at_cycle" a.Executor.at_cycle b.Executor.at_cycle;
  let cb name av bv = Alcotest.(check bool) (ctx ^ ": " ^ name) true (av = bv) in
  cb "outputs_before" a.Executor.outputs_before b.Executor.outputs_before;
  let ia = a.Executor.image and ib = b.Executor.image in
  cb "image.resume" ia.Persist.resume ib.Persist.resume;
  cb "image.slots" ia.Persist.slots ib.Persist.slots;
  cb "image.journal" ia.Persist.journal ib.Persist.journal;
  cb "image.acked" ia.Persist.acked ib.Persist.acked;
  Alcotest.(check bool)
    (ctx ^ ": image.nvm") true
    (Memory.equal ia.Persist.nvm ib.Persist.nvm)

let finished ctx = function
  | Executor.Finished r -> r
  | Executor.Crashed _ -> Alcotest.fail (ctx ^ ": unexpected crash")

let crashed ctx = function
  | Executor.Crashed c -> c
  | Executor.Finished _ -> Alcotest.fail (ctx ^ ": expected a crash")

(* Crash-free identity across all five persistence modes, single core. *)
let test_differential_modes () =
  List.iter
    (fun seed ->
      let program = Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let threads = [ Executor.main_thread program ] in
      List.iter
        (fun mode ->
          let ctx =
            Printf.sprintf "seed %d %s" seed (Persist.mode_name mode)
          in
          let a =
            finished ctx (run_engine ~mode ~engine:Executor.Interp compiled threads)
          in
          let b =
            finished ctx
              (run_engine ~mode ~engine:Executor.Compiled compiled threads)
          in
          check_same ctx a b)
        Persist.all_modes)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* Tiny caches force dirty writebacks of uncommitted lines mid-region —
   the timing interactions the burst scheduler could most plausibly
   reorder. *)
let test_differential_small_caches () =
  let config =
    {
      Config.sim_default with
      Config.l1_lines = 8;
      l2_lines = 16;
      dram_cache_lines = 32;
    }
  in
  List.iter
    (fun seed ->
      let program = Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let threads = [ Executor.main_thread program ] in
      List.iter
        (fun mode ->
          let ctx =
            Printf.sprintf "small-cache seed %d %s" seed
              (Persist.mode_name mode)
          in
          let a =
            finished ctx
              (run_engine ~config ~mode ~engine:Executor.Interp compiled threads)
          in
          let b =
            finished ctx
              (run_engine ~config ~mode ~engine:Executor.Compiled compiled
                 threads)
          in
          check_same ctx a b)
        [ Persist.Capri; Persist.Naive_sync ])
    [ 11; 23; 42 ]

(* Multi-core: the burst scheduler must reproduce the interpreter's
   earliest-cycle-first interleaving exactly. *)
let test_differential_multicore () =
  List.iter
    (fun (seed, cores) ->
      let prog = Gen.generate ~cores seed in
      let program, threads = Gen.lower prog in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let ctx = Printf.sprintf "seed %d cores %d" seed cores in
      let a =
        finished ctx (run_engine ~engine:Executor.Interp compiled threads)
      in
      let b =
        finished ctx (run_engine ~engine:Executor.Compiled compiled threads)
      in
      check_same ctx a b)
    [ (3, 2); (9, 2); (17, 3); (29, 4) ]

(* Crash images must be bit-identical between engines in every mode (the
   image is pure machine state — recoverable or not). *)
let test_crash_image_identity () =
  List.iter
    (fun seed ->
      let program = Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let threads = [ Executor.main_thread program ] in
      let reference =
        finished "ref" (run_engine ~engine:Executor.Compiled compiled threads)
      in
      let total = reference.Executor.instrs in
      List.iter
        (fun mode ->
          List.iter
            (fun at ->
              let ctx =
                Printf.sprintf "seed %d %s crash@%d" seed
                  (Persist.mode_name mode) at
              in
              let a =
                crashed ctx
                  (run_engine ~mode ~crash_at_instr:at
                     ~engine:Executor.Interp compiled threads)
              in
              let b =
                crashed ctx
                  (run_engine ~mode ~crash_at_instr:at
                     ~engine:Executor.Compiled compiled threads)
              in
              check_same_crash ctx a b)
            [ max 1 (total / 3); max 1 (2 * total / 3) ])
        Persist.all_modes)
    [ 2; 5; 13 ]

(* Full crash + recover + resume, each engine end to end; final states
   must agree with each other and with the crash-free reference. *)
let test_crash_recovery_identity () =
  List.iter
    (fun seed ->
      let program = Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let threads = [ Executor.main_thread program ] in
      let reference =
        finished "ref" (run_engine ~engine:Executor.Compiled compiled threads)
      in
      let total = reference.Executor.instrs in
      let recover_with engine at =
        let ctx =
          Printf.sprintf "seed %d crash@%d %s" seed at
            (Executor.engine_name engine)
        in
        let c = crashed ctx (run_engine ~crash_at_instr:at ~engine compiled threads) in
        ignore (Recovery.apply_recovery_blocks compiled c.Executor.image);
        let session =
          Executor.resume ~engine ~compiled ~image:c.Executor.image ~threads ()
        in
        let r = finished ctx (Executor.run session) in
        (* outputs emitted before the crash already left the machine *)
        ( r,
          {
            r with
            Executor.outputs =
              Array.mapi
                (fun i o -> c.Executor.outputs_before.(i) @ o)
                r.Executor.outputs;
          } )
      in
      List.iter
        (fun at ->
          let ctx = Printf.sprintf "seed %d crash@%d" seed at in
          let a, _ = recover_with Executor.Interp at in
          let b, b_full = recover_with Executor.Compiled at in
          check_same ctx a b;
          match Verify.check_equivalence ~reference ~candidate:b_full with
          | Ok () -> ()
          | Error reason -> Alcotest.fail (ctx ^ ": " ^ reason))
        [ max 1 (total / 4); max 1 (total / 2); max 1 (3 * total / 4) ])
    [ 4; 21; 33 ]

(* The step budget is per thread: a sibling that halts early must not
   donate its unused budget to a spinner, and the Livelock error must
   name the spinning core and its region identically in both engines. *)
let spin_program () =
  let b = Builder.create () in
  let f = Builder.func b "main" in
  Builder.li f (r 1) 1;
  Builder.out f (rg 1);
  Builder.halt f;
  let g = Builder.func b "spin" in
  let loop = Builder.block g "loop" in
  Builder.li g (r 1) 0;
  Builder.jump g loop;
  Builder.switch g loop;
  Builder.add g (r 1) (rg 1) (im 1);
  Builder.jump g loop;
  Builder.finish b ~main:"main"

let test_livelock_structured () =
  let program = spin_program () in
  let compiled = Pipeline.compile Opt.default program in
  let threads =
    [
      { Executor.func = "main"; args = [] };
      { Executor.func = "spin"; args = [] };
    ]
  in
  let budget = 500 in
  let livelock_of engine =
    match
      run_engine ~engine ~max_steps:budget compiled threads
    with
    | exception Executor.Livelock { core; region; steps } ->
      (core, region, steps)
    | Executor.Finished _ | Executor.Crashed _ ->
      Alcotest.fail
        (Executor.engine_name engine ^ ": expected Livelock")
  in
  let core_a, region_a, steps_a = livelock_of Executor.Interp in
  let core_b, region_b, steps_b = livelock_of Executor.Compiled in
  Alcotest.(check int) "spinning core (interp)" 1 core_a;
  Alcotest.(check int) "spinning core (compiled)" 1 core_b;
  Alcotest.(check string) "same region" region_a region_b;
  Alcotest.(check int) "same step count" steps_a steps_b;
  Alcotest.(check bool) "budget exceeded" true (steps_a > budget);
  (* the halting sibling alone stays well under the same budget *)
  let solo =
    run_engine ~engine:Executor.Compiled ~max_steps:budget compiled
      [ { Executor.func = "main"; args = [] } ]
  in
  ignore (finished "solo main" solo)

(* The transactional serving layer: a cross-shard 2PC store must be
   engine-invariant end to end — acks, response streams, crash images
   and recovered tables — both crash-free and through a crash schedule
   that lands mid-protocol. *)
let test_txn_service_differential () =
  let module Svc = Capri_service in
  let cfg =
    {
      Svc.Server.default_cfg with
      Svc.Server.shards = 2;
      client =
        {
          Svc.Client.default with
          Svc.Client.ops_per_shard = 16;
          key_space = 16;
          seed = 9;
          txns = 3;
          txn_items = 2;
        };
    }
  in
  let with_engine engine f =
    let saved = !Executor.default_engine in
    Executor.default_engine := engine;
    Fun.protect ~finally:(fun () -> Executor.default_engine := saved) f
  in
  let t = Svc.Server.plan cfg in
  let run ?crash_at engine =
    with_engine engine (fun () -> Svc.Server.run ?crash_at t)
  in
  let a = run Executor.Interp and b = run Executor.Compiled in
  Alcotest.(check bool) "crash-free acks" true
    (a.Svc.Server.acks = b.Svc.Server.acks);
  Alcotest.(check bool) "crash-free streams" true
    (a.Svc.Server.final = b.Svc.Server.final);
  Alcotest.(check int) "crash-free cycles" a.Svc.Server.cycles
    b.Svc.Server.cycles;
  let total = a.Svc.Server.result.Executor.instrs in
  let schedule = [ total / 3; total / 4 ] in
  let ca = run ~crash_at:schedule Executor.Interp in
  let cb = run ~crash_at:schedule Executor.Compiled in
  Alcotest.(check bool) "acks" true (ca.Svc.Server.acks = cb.Svc.Server.acks);
  Alcotest.(check bool) "streams" true
    (ca.Svc.Server.final = cb.Svc.Server.final);
  Alcotest.(check int) "recoveries" ca.Svc.Server.recoveries
    cb.Svc.Server.recoveries;
  Alcotest.(check int) "images" 2 (List.length ca.Svc.Server.images);
  List.iter2
    (fun (ia : Persist.image) (ib : Persist.image) ->
      Alcotest.(check bool) "image.resume" true
        (ia.Persist.resume = ib.Persist.resume);
      Alcotest.(check bool) "image.slots" true
        (ia.Persist.slots = ib.Persist.slots);
      Alcotest.(check bool) "image.journal" true
        (ia.Persist.journal = ib.Persist.journal);
      Alcotest.(check bool) "image.acked" true
        (ia.Persist.acked = ib.Persist.acked);
      Alcotest.(check bool) "image.nvm" true
        (Memory.equal ia.Persist.nvm ib.Persist.nvm))
    ca.Svc.Server.images cb.Svc.Server.images;
  (* both engines' recovered stores satisfy the serializability +
     durability oracle and agree with the crash-free streams *)
  List.iter
    (fun (name, o) ->
      match Svc.Server.check t o with
      | Ok () -> ()
      | Error v -> Alcotest.failf "%s: %a" name Svc.Sla.pp_violation v)
    [ ("interp", ca); ("compiled", cb) ];
  Alcotest.(check bool) "crashed streams = crash-free streams" true
    (ca.Svc.Server.final = a.Svc.Server.final)

(* Engine selection plumbing. *)
let test_engine_of_string () =
  Alcotest.(check bool)
    "interp" true
    (Executor.engine_of_string "interp" = Some Executor.Interp);
  Alcotest.(check bool)
    "compiled" true
    (Executor.engine_of_string "compiled" = Some Executor.Compiled);
  Alcotest.(check bool)
    "junk" true
    (Executor.engine_of_string "threaded" = None);
  Alcotest.(check string) "name round-trip" "interp"
    (Executor.engine_name Executor.Interp);
  Alcotest.(check string) "name round-trip" "compiled"
    (Executor.engine_name Executor.Compiled)

(* Property: random programs × all five modes × crash schedules — the
   engines agree on everything, always. *)
let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 5_000)

let prop_engines_agree =
  QCheck.Test.make ~count:20 ~name:"compiled == interp (modes x crashes)"
    seed_gen (fun seed ->
      let program = Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let threads = [ Executor.main_thread program ] in
      let run ?crash_at_instr ~mode engine =
        run_engine ~mode ?crash_at_instr ~engine compiled threads
      in
      (* crash-free identity in every mode *)
      List.iter
        (fun mode ->
          match (run ~mode Executor.Interp, run ~mode Executor.Compiled) with
          | Executor.Finished a, Executor.Finished b ->
            if
              not
                (a.Executor.cycles = b.Executor.cycles
                && a.Executor.instrs = b.Executor.instrs
                && a.Executor.outputs = b.Executor.outputs
                && a.Executor.acks = b.Executor.acks
                && a.Executor.final_regs = b.Executor.final_regs
                && a.Executor.persist_stats = b.Executor.persist_stats
                && a.Executor.hier_stats = b.Executor.hier_stats
                && Memory.equal a.Executor.memory b.Executor.memory)
            then
              QCheck.Test.fail_reportf "seed %d mode %s: engines diverge" seed
                (Persist.mode_name mode)
          | _ ->
            QCheck.Test.fail_reportf "seed %d mode %s: unexpected crash" seed
              (Persist.mode_name mode))
        Persist.all_modes;
      (* crash-image + recovery identity (Capri mode) *)
      let total =
        match run ~mode:Persist.Capri Executor.Compiled with
        | Executor.Finished r -> r.Executor.instrs
        | Executor.Crashed _ -> assert false
      in
      let points =
        List.sort_uniq compare
          [ 1 + (seed * 7919 mod max 1 (total - 1)); max 1 (total / 2) ]
      in
      List.for_all
        (fun at ->
          let crash engine =
            match run ~mode:Persist.Capri ~crash_at_instr:at engine with
            | Executor.Crashed c -> c
            | Executor.Finished _ ->
              QCheck.Test.fail_reportf "seed %d: crash@%d did not fire" seed at
          in
          let a = crash Executor.Interp and b = crash Executor.Compiled in
          let ia = a.Executor.image and ib = b.Executor.image in
          if
            not
              (a.Executor.at_cycle = b.Executor.at_cycle
              && ia.Persist.resume = ib.Persist.resume
              && ia.Persist.slots = ib.Persist.slots
              && ia.Persist.journal = ib.Persist.journal
              && Memory.equal ia.Persist.nvm ib.Persist.nvm)
          then
            QCheck.Test.fail_reportf "seed %d crash@%d: images diverge" seed at;
          let resume engine (c : Executor.crash) =
            ignore (Recovery.apply_recovery_blocks compiled c.Executor.image);
            let s =
              Executor.resume ~engine ~compiled ~image:c.Executor.image
                ~threads ()
            in
            match Executor.run s with
            | Executor.Finished r -> r
            | Executor.Crashed _ -> assert false
          in
          let ra = resume Executor.Interp a in
          let rb = resume Executor.Compiled b in
          ra.Executor.cycles = rb.Executor.cycles
          && ra.Executor.final_regs = rb.Executor.final_regs
          && ra.Executor.outputs = rb.Executor.outputs
          && Memory.equal ra.Executor.memory rb.Executor.memory
          || QCheck.Test.fail_reportf "seed %d crash@%d: recovery diverges"
               seed at)
        points)

let suite =
  [
    Alcotest.test_case "differential: all modes" `Quick test_differential_modes;
    Alcotest.test_case "differential: small caches" `Quick
      test_differential_small_caches;
    Alcotest.test_case "differential: multicore" `Quick
      test_differential_multicore;
    Alcotest.test_case "crash images identical" `Quick test_crash_image_identity;
    Alcotest.test_case "crash recovery identical" `Quick
      test_crash_recovery_identity;
    Alcotest.test_case "livelock: per-thread budget, structured error" `Quick
      test_livelock_structured;
    Alcotest.test_case "txn service: engines identical" `Quick
      test_txn_service_differential;
    Alcotest.test_case "engine selection plumbing" `Quick test_engine_of_string;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_engines_agree ]
