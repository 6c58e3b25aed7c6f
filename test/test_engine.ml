(* Differential tests: the burst scheduler, `Executor.run`, against
   `Executor.run_reference`, which steps the same lowered closures one
   instruction per earliest-cycle pick with no bursts and no fused
   blocks. The two must be indistinguishable — not just in final memory,
   but in cycle counts, dynamic-instruction accounting, persist/hierarchy
   statistics, output/ack streams, crash images and recovery results.
   Any divergence means bursts or block fusion changed simulated
   semantics, not just wall-clock speed. *)

open Capri
open Helpers
module Opt = Capri_compiler.Options
module Gen = Capri_workloads.Gen
module Suite = Capri_workloads.Suite
module Kernel = Capri_workloads.Kernel
module Obs = Capri_obs.Obs

(* Same seed-driven option mix as the qcheck suite, forced failure-atomic
   so crash schedules are meaningful. *)
let options_of_seed seed =
  let thresholds = [| 16; 32; 64; 256 |] in
  let configs = Array.of_list Opt.fig9_configs in
  let threshold = thresholds.(seed mod Array.length thresholds) in
  let _, options = configs.((seed / 7) mod Array.length configs) in
  let options = Opt.with_threshold threshold options in
  if options.Opt.ckpt then options else { options with Opt.ckpt = true }

(* Either scheduler: [Executor.run] or [Executor.run_reference]. *)
type scheduler =
  ?crash_at_instr:int -> ?max_steps:int -> Executor.session -> Executor.outcome

let start_with ?config ?(mode = Persist.Capri) ?obs (compiled : Compiled.t)
    threads =
  Executor.start ?config ~mode ?obs
    ~check_threshold:compiled.Compiled.options.Opt.threshold
    ~program:compiled.Compiled.program ~threads ()

let run_with ?config ?mode ?obs ?crash_at_instr ?max_steps ~(run : scheduler)
    compiled threads =
  run ?crash_at_instr ?max_steps (start_with ?config ?mode ?obs compiled threads)

(* Every field of every region row. *)
let profile_list (p : Executor.region_row array) =
  Array.to_list p
  |> List.map (fun (r : Executor.region_row) ->
         ( (r.Executor.id, r.Executor.executions, r.Executor.instrs),
           (r.Executor.stores, r.Executor.max_stores, r.Executor.ckpt_stores),
           (r.Executor.stall_cycles, r.Executor.commits),
           (r.Executor.commit_latency, r.Executor.nvm_lines) ))

(* Field-by-field identity between a reference result [a] and a burst
   scheduler result [b]. *)
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
            finished ctx
              (run_with ~mode ~run:Executor.run_reference compiled threads)
          in
          let b =
            finished ctx
              (run_with ~mode ~run:Executor.run compiled threads)
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
              (run_with ~config ~mode ~run:Executor.run_reference compiled
                 threads)
          in
          let b =
            finished ctx
              (run_with ~config ~mode ~run:Executor.run compiled
                 threads)
          in
          check_same ctx a b)
        [ Persist.Capri; Persist.Naive_sync ])
    [ 11; 23; 42 ]

(* Multi-core: the burst scheduler must reproduce the reference's
   earliest-cycle-first interleaving exactly. *)
let test_differential_multicore () =
  List.iter
    (fun (seed, cores) ->
      let prog = Gen.generate ~cores seed in
      let program, threads = Gen.lower prog in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let ctx = Printf.sprintf "seed %d cores %d" seed cores in
      let a =
        finished ctx (run_with ~run:Executor.run_reference compiled threads)
      in
      let b =
        finished ctx (run_with ~run:Executor.run compiled threads)
      in
      check_same ctx a b)
    [ (3, 2); (9, 2); (17, 3); (29, 4) ]

(* Crash images must be bit-identical between schedulers in every mode
   (the image is pure machine state — recoverable or not). *)
let test_crash_image_identity () =
  List.iter
    (fun seed ->
      let program = Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let threads = [ Executor.main_thread program ] in
      let reference =
        finished "ref" (run_with ~run:Executor.run compiled threads)
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
                  (run_with ~mode ~crash_at_instr:at
                     ~run:Executor.run_reference compiled threads)
              in
              let b =
                crashed ctx
                  (run_with ~mode ~crash_at_instr:at
                     ~run:Executor.run compiled threads)
              in
              check_same_crash ctx a b)
            [ max 1 (total / 3); max 1 (2 * total / 3) ])
        Persist.all_modes)
    [ 2; 5; 13 ]

(* Full crash + recover + resume, each scheduler end to end; final states
   must agree with each other and with the crash-free reference. *)
let test_crash_recovery_identity () =
  List.iter
    (fun seed ->
      let program = Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let threads = [ Executor.main_thread program ] in
      let reference =
        finished "ref" (run_with ~run:Executor.run compiled threads)
      in
      let total = reference.Executor.instrs in
      let recover_with name (run : scheduler) at =
        let ctx = Printf.sprintf "seed %d crash@%d %s" seed at name in
        let session = start_with compiled threads in
        let c = crashed ctx (run ~crash_at_instr:at session) in
        ignore
          (Recovery.apply_recovery_blocks_per_core compiled c.Executor.image);
        let r =
          finished ctx
            (run (Executor.resume ~compiled ~image:c.Executor.image session))
        in
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
          let a, _ = recover_with "reference" Executor.run_reference at in
          let b, b_full = recover_with "run" Executor.run at in
          check_same ctx a b;
          match Verify.check_equivalence ~reference ~candidate:b_full with
          | Ok () -> ()
          | Error reason -> Alcotest.fail (ctx ^ ": " ^ reason))
        [ max 1 (total / 4); max 1 (total / 2); max 1 (3 * total / 4) ])
    [ 4; 21; 33 ]

(* The step budget is per thread: a sibling that halts early must not
   donate its unused budget to a spinner, and the Livelock error must
   name the spinning core and its region identically under both
   schedulers. *)
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
  let livelock_of name run =
    match run_with ~run ~max_steps:budget compiled threads with
    | exception Executor.Livelock { core; region; steps } ->
      (core, region, steps)
    | Executor.Finished _ | Executor.Crashed _ ->
      Alcotest.fail (name ^ ": expected Livelock")
  in
  let core_a, region_a, steps_a =
    livelock_of "reference" Executor.run_reference
  in
  let core_b, region_b, steps_b = livelock_of "run" Executor.run in
  Alcotest.(check int) "spinning core (reference)" 1 core_a;
  Alcotest.(check int) "spinning core (run)" 1 core_b;
  Alcotest.(check string) "same region" region_a region_b;
  Alcotest.(check int) "same step count" steps_a steps_b;
  Alcotest.(check bool) "budget exceeded" true (steps_a > budget);
  (* the halting sibling alone stays well under the same budget *)
  let solo =
    run_with ~run:Executor.run ~max_steps:budget compiled
      [ { Executor.func = "main"; args = [] } ]
  in
  ignore (finished "solo main" solo)

(* Runahead must not spend a thread's step budget ahead of its turn.
   Two register-only spin loops, uncompiled so no boundary interrupts
   them; core 0 first makes a cold load, which puts its 501st step later
   in simulated time than core 1's. Core 0 runs first and could spin
   through its whole budget thread-locally, but the reference names
   core 1, and so must [run]. *)
let test_livelock_runahead () =
  let b = Builder.create () in
  let cold = Builder.alloc b ~words:1 in
  let spin name ~load_cold =
    let f = Builder.func b name in
    let loop = Builder.block f "loop" in
    if load_cold then Builder.load f (r 3) ~base:(r 2) ~off:cold ();
    Builder.li f (r 1) 0;
    Builder.jump f loop;
    Builder.switch f loop;
    Builder.add f (r 1) (rg 1) (im 1);
    Builder.jump f loop
  in
  spin "main" ~load_cold:true;
  spin "other" ~load_cold:false;
  let program = Builder.finish b ~main:"main" in
  let threads =
    [
      { Executor.func = "main"; args = [] };
      { Executor.func = "other"; args = [] };
    ]
  in
  let livelock_of name (run : scheduler) =
    let session =
      Executor.start ~mode:Persist.Volatile ~program ~threads ()
    in
    match run ~max_steps:500 session with
    | exception Executor.Livelock { core; region; steps } ->
      (core, region, steps)
    | Executor.Finished _ | Executor.Crashed _ ->
      Alcotest.fail (name ^ ": expected Livelock")
  in
  let core_a, region_a, steps_a =
    livelock_of "reference" Executor.run_reference
  in
  let core_b, region_b, steps_b = livelock_of "run" Executor.run in
  Alcotest.(check int) "later-starting spinner (reference)" 1 core_a;
  Alcotest.(check int) "same core" core_a core_b;
  Alcotest.(check string) "same region" region_a region_b;
  Alcotest.(check int) "same step count" steps_a steps_b

(* A traced run records every region span with its global instruction
   index, so runahead is off under the tracer: the 4-thread Splash3
   kernels must give the reference's results and its timeline. *)
let test_traced_multicore () =
  List.iter
    (fun name ->
      let k = Suite.by_name ~scale:Suite.test_scale name in
      let compiled = Pipeline.compile Opt.default k.Kernel.program in
      let traced (run : scheduler) =
        let obs = Obs.create () in
        let r = finished name (run_with ~obs ~run compiled k.Kernel.threads) in
        (r, Executor.boundary_instrs obs.Obs.tracer)
      in
      let a, ia = traced Executor.run_reference in
      let b, ib = traced Executor.run in
      check_same name a b;
      Alcotest.(check (list int)) (name ^ ": boundary_instrs") ia ib)
    [ "barnes"; "radix"; "water-spatial" ]

(* The transactional serving layer: a cross-shard 2PC store's sessions,
   driven directly with journaled I/O (the only differential over
   journaled [Out]), must be scheduler-invariant end to end — acks,
   response streams, cycles and every crash image — both crash-free and
   through a crash schedule that lands mid-protocol. *)
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
  let t = Svc.Server.plan cfg in
  let compiled = t.Svc.Server.compiled in
  let threads = Svc.Kvstore.thread_specs t.Svc.Server.kv in
  let config = cfg.Svc.Server.config and mode = cfg.Svc.Server.mode in
  let check_threshold = compiled.Compiled.options.Opt.threshold in
  (* Each crash point counts from the start of its own segment; every
     crash is recovered and the run resumed from its image. *)
  let drive name (run : scheduler) schedule =
    let rec go session crashes = function
      | [] -> (finished name (run session), List.rev crashes)
      | at :: rest ->
        let c = crashed name (run ~crash_at_instr:at session) in
        ignore
          (Recovery.apply_recovery_blocks_per_core compiled c.Executor.image);
        go
          (Executor.resume ~compiled ~image:c.Executor.image session)
          (c :: crashes) rest
    in
    go
      (Executor.start ~config ~mode ~journal_io:true ~check_threshold
         ~program:compiled.Compiled.program ~threads ())
      [] schedule
  in
  let a, _ = drive "reference" Executor.run_reference [] in
  let b, _ = drive "run" Executor.run [] in
  check_same "crash-free" a b;
  let total = a.Executor.instrs in
  let schedule = [ total / 3; total / 4 ] in
  let ra, ca = drive "reference" Executor.run_reference schedule in
  let rb, cb = drive "run" Executor.run schedule in
  Alcotest.(check int) "crashes" 2 (List.length ca);
  List.iteri
    (fun i (x, y) -> check_same_crash (Printf.sprintf "crash %d" i) x y)
    (List.combine ca cb);
  check_same "resumed" ra rb;
  (* the recovered store satisfies the serializability + durability
     oracle and agrees with the crash-free streams *)
  let free = Svc.Server.run t in
  let crashed_run = Svc.Server.run ~crash_at:schedule t in
  (match Svc.Server.check t crashed_run with
   | Ok () -> ()
   | Error v -> Alcotest.failf "Server.run: %a" Svc.Sla.pp_violation v);
  Alcotest.(check bool) "crashed streams = crash-free streams" true
    (crashed_run.Svc.Server.final = free.Svc.Server.final)

(* Property: random programs × all five modes × crash schedules — the
   two schedulers agree on everything, always. *)
let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 5_000)

let prop_schedulers_agree =
  QCheck.Test.make ~count:20 ~name:"run == run_reference (modes x crashes)"
    seed_gen (fun seed ->
      let program = Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let threads = [ Executor.main_thread program ] in
      let run ?crash_at_instr ~mode (run : scheduler) =
        run_with ~mode ?crash_at_instr ~run compiled threads
      in
      (* crash-free identity in every mode *)
      List.iter
        (fun mode ->
          match
            (run ~mode Executor.run_reference, run ~mode Executor.run)
          with
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
              QCheck.Test.fail_reportf "seed %d mode %s: schedulers diverge"
                seed
                (Persist.mode_name mode)
          | _ ->
            QCheck.Test.fail_reportf "seed %d mode %s: unexpected crash" seed
              (Persist.mode_name mode))
        Persist.all_modes;
      (* crash-image + recovery identity (Capri mode) *)
      let total =
        match run ~mode:Persist.Capri Executor.run with
        | Executor.Finished r -> r.Executor.instrs
        | Executor.Crashed _ -> assert false
      in
      let points =
        List.sort_uniq compare
          [ 1 + (seed * 7919 mod max 1 (total - 1)); max 1 (total / 2) ]
      in
      List.for_all
        (fun at ->
          let crash (sched : scheduler) =
            let session = start_with compiled threads in
            match sched ~crash_at_instr:at session with
            | Executor.Crashed c -> (session, c)
            | Executor.Finished _ ->
              QCheck.Test.fail_reportf "seed %d: crash@%d did not fire" seed at
          in
          let sa, a = crash Executor.run_reference
          and sb, b = crash Executor.run in
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
          let resume (run : scheduler) session (c : Executor.crash) =
            ignore
              (Recovery.apply_recovery_blocks_per_core compiled
                 c.Executor.image);
            match run (Executor.resume ~compiled ~image:c.Executor.image session)
            with
            | Executor.Finished r -> r
            | Executor.Crashed _ -> assert false
          in
          let ra = resume Executor.run_reference sa a in
          let rb = resume Executor.run sb b in
          ra.Executor.cycles = rb.Executor.cycles
          && ra.Executor.final_regs = rb.Executor.final_regs
          && ra.Executor.outputs = rb.Executor.outputs
          && Memory.equal ra.Executor.memory rb.Executor.memory
          || QCheck.Test.fail_reportf "seed %d crash@%d: recovery diverges"
               seed at)
        points)

(* Property: a rewound machine is a started one. One machine per mode is
   stopped each way a drive can stop — finished, crashed and not
   resumed, abandoned by [Livelock] or by a failed threshold check — and
   rewound; its next drive must match the same drive on a fresh machine
   field by field, crash images and abort messages included. A traced
   drive under a fresh bundle on a rewound machine must also leave the
   same metrics and trace as on a fresh one. *)
type stop =
  | Done of Executor.result
  | Crash of Executor.crash
  | Abort of string

let stop_of drive =
  match drive () with
  | Executor.Finished r -> Done r
  | Executor.Crashed c -> Crash c
  | exception (Executor.Livelock _ as e) -> Abort (Printexc.to_string e)
  | exception Failure msg -> Abort msg

let check_same_stop ctx a b =
  match (a, b) with
  | Done a, Done b -> check_same ctx a b
  | Crash a, Crash b -> check_same_crash ctx a b
  | Abort a, Abort b -> Alcotest.(check string) (ctx ^ ": abort") a b
  | (Done _ | Crash _ | Abort _), _ -> Alcotest.failf "%s: stops differ" ctx

let prop_rewind_is_start =
  QCheck.Test.make ~count:12 ~name:"rewind == start (modes x stops)" seed_gen
    (fun seed ->
      let program, threads =
        Gen.lower (Gen.generate ~cores:(1 + (seed mod 3)) seed)
      in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      List.iter
        (fun mode ->
          let ctx what =
            Printf.sprintf "seed %d %s: %s" seed (Persist.mode_name mode) what
          in
          let start ?obs ?check_threshold () =
            match check_threshold with
            | None -> start_with ~mode ?obs compiled threads
            | Some limit ->
              Executor.start ~mode ?obs ~check_threshold:limit
                ~program:compiled.Compiled.program ~threads ()
          in
          let total =
            (* unchecked: a threshold violation stops every drive below
               alike, and the comparisons hold it to that *)
            (finished (ctx "reference")
               (Executor.run
                  (Executor.start ~mode ~program:compiled.Compiled.program
                     ~threads ())))
              .Executor.instrs
          in
          let at = 1 + (seed mod max 1 (total - 1)) in
          (* From the start state, [stop] leaves [machine] stopped;
             rewound, it must run [next] as a fresh machine does *)
          let after what ?check_threshold ~stop ~next machine =
            Executor.rewind machine;
            ignore (stop_of (fun () -> stop machine));
            Executor.rewind machine;
            check_same_stop
              (ctx ("after " ^ what))
              (stop_of (fun () -> next (start ?check_threshold ())))
              (stop_of (fun () -> next machine))
          in
          let machine = start () in
          let crash m = Executor.run ~crash_at_instr:at m in
          after "a finished drive" ~stop:Executor.run ~next:crash machine;
          after "an unresumed crash" ~stop:crash ~next:Executor.run machine;
          (* the busiest thread takes at least total / cores steps *)
          after "a livelock" ~next:Executor.run machine
            ~stop:(Executor.run ~max_steps:(total / (2 * List.length threads)));
          after "a threshold abort" ~check_threshold:0
            (start ~check_threshold:0 ())
            ~stop:Executor.run
            ~next:(Executor.run ~crash_at_instr:(1 + (seed mod 8)));
          (* a traced drive under a fresh bundle: rewound == fresh *)
          let crash_at =
            if Persist.crash_recoverable mode then [ at ] else []
          in
          let traced (machine, obs) =
            let stop =
              stop_of (fun () ->
                  Executor.Finished
                    (Recovery.drive ~obs ~crash_at compiled machine))
            in
            ( stop,
              Capri_obs.Metrics.to_json obs.Obs.metrics,
              Capri_obs.Tracer.to_chrome_json obs.Obs.tracer )
          in
          let rewound = start ~obs:(Obs.create ()) () in
          ignore (Executor.run rewound);
          let fresh_obs = Obs.create () in
          let a, metrics_a, trace_a =
            traced (start ~obs:fresh_obs (), fresh_obs)
          in
          let b, metrics_b, trace_b = traced (rewound, Obs.create ()) in
          check_same_stop (ctx "traced drive") a b;
          Alcotest.(check string) (ctx "traced metrics") metrics_a metrics_b;
          Alcotest.(check string) (ctx "traced trace") trace_a trace_b)
        Persist.all_modes;
      true)

let test_rewind_refuses_other_tracer_setting () =
  let program = Gen.program_of_seed 3 in
  let compiled = Pipeline.compile (options_of_seed 3) program in
  let machine = start_with compiled [ Executor.main_thread program ] in
  ignore (Executor.run machine);
  Alcotest.check_raises "traced bundle on an untraced machine"
    (Invalid_argument
       "Executor.rewind: the session's closures were lowered for the other \
        tracer setting")
    (fun () -> Executor.rewind ~obs:(Obs.create ()) machine);
  (* an untraced bundle with a live registry is accepted *)
  Executor.rewind
    ~obs:{ Obs.null with Obs.metrics = Capri_obs.Metrics.create () }
    machine

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
    Alcotest.test_case "livelock: runahead keeps the reference's core"
      `Quick test_livelock_runahead;
    Alcotest.test_case "traced multicore: reference timeline" `Quick
      test_traced_multicore;
    Alcotest.test_case "txn service: run == run_reference" `Quick
      test_txn_service_differential;
    Alcotest.test_case "rewind refuses the other tracer setting" `Quick
      test_rewind_refuses_other_tracer_setting;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_schedulers_agree; prop_rewind_is_start ]
