(* Bechamel micro-benchmarks of the library's hot building blocks: one
   Test.make per experiment table so regressions in the substrate show up
   independently of the simulation results. *)

open Bechamel
open Toolkit
open Capri
module W = Capri_workloads

let sum_kernel () = W.Suite.by_name ~scale:2 "505.mcf_r"

let test_cache =
  Test.make ~name:"cache: 4k mixed accesses"
    (Staged.stage (fun () ->
         let c = Capri_arch.Cache.create ~sets:64 ~ways:8 in
         for i = 0 to 4095 do
           let line = i * 7 mod 1024 in
           if Capri_arch.Cache.mem c line then
             Capri_arch.Cache.touch c line ~dirty:(i land 1 = 0)
           else ignore (Capri_arch.Cache.insert c line ~dirty:(i land 1 = 0))
         done))

let test_liveness =
  let k = sum_kernel () in
  Test.make ~name:"dataflow: interprocedural liveness"
    (Staged.stage (fun () ->
         ignore (Inter_liveness.compute k.W.Kernel.program)))

let test_compile =
  let k = sum_kernel () in
  Test.make ~name:"compiler: full pipeline"
    (Staged.stage (fun () -> ignore (compile k.W.Kernel.program)))

module Svc = Capri_service

(* The kv-hot benchmark's store shape, at one client seed: 2 shards,
   64 keys, mix A, zipf 0.99, 200 requests per shard, 4 cross-shard
   transactions, Capri mode. *)
let kv_hot ~seed =
  {
    Svc.Server.default_cfg with
    Svc.Server.shards = 2;
    client =
      {
        Svc.Client.default with
        Svc.Client.mix = Svc.Client.A;
        key_space = 64;
        ops_per_shard = 200;
        skew = 0.99;
        loop = Svc.Client.Closed;
        seed;
        txns = 4;
      };
    mode = Persist.Capri;
  }

(* One kv-hot store, seed 10: few functions with many regions each, the
   shape where a per-region cost in a pass shows. 505.mcf_r above has
   few regions per function. *)
let test_compile_kv =
  let program =
    (Svc.Server.plan (kv_hot ~seed:10)).Svc.Server.kv.Svc.Kvstore.program
  in
  Test.make ~name:"compiler: kv store pipeline"
    (Staged.stage (fun () -> ignore (compile program)))

let test_run =
  let k = sum_kernel () in
  let compiled = compile k.W.Kernel.program in
  Test.make ~name:"simulator: compiled run"
    (Staged.stage (fun () ->
         ignore (run ~threads:k.W.Kernel.threads compiled)))

(* --- Dispatch microbenchmarks -------------------------------------- *)
(* Three loop shapes that isolate the per-instruction dispatch cost of
   the lowered closures: a tight arithmetic loop (pure register traffic,
   the best case for fused whole-block execution), a store-heavy loop
   (every iteration feeds the persist front proxy, exercising the batched
   word-delta path) and a branch-heavy loop (a data-dependent diamond per
   iteration, so no block fuses across the backedge). *)

let rr = Reg.of_int
let rg i = Builder.reg (rr i)
let im = Builder.imm

(* Shared loop skeleton: i in r1, acc in r2, array base in r3; [body]
   emits the per-iteration payload and must leave the insertion point
   where the increment belongs. *)
let loop_program ~trips body =
  let b = Builder.create () in
  let arr = Builder.alloc b ~words:64 in
  let f = Builder.func b "main" in
  let loop = Builder.block f "loop" in
  let body_l = Builder.block f "body" in
  let exit_ = Builder.block f "exit" in
  Builder.li f (rr 1) 0;
  Builder.li f (rr 2) 0;
  Builder.li f (rr 3) arr;
  Builder.jump f loop;
  Builder.switch f loop;
  Builder.binop f Instr.Lt (rr 4) (rg 1) (im trips);
  Builder.branch f (rg 4) body_l exit_;
  Builder.switch f body_l;
  body f;
  Builder.add f (rr 1) (rg 1) (im 1);
  Builder.jump f loop;
  Builder.switch f exit_;
  Builder.out f (rg 2);
  Builder.halt f;
  Builder.finish b ~main:"main"

let arith_program ~trips =
  loop_program ~trips (fun f ->
      Builder.add f (rr 2) (rg 2) (rg 1);
      Builder.binop f Instr.Xor (rr 5) (rg 2) (im 0x5555);
      Builder.binop f Instr.And (rr 5) (rg 5) (im 0xffff);
      Builder.add f (rr 2) (rg 2) (rg 5);
      Builder.binop f Instr.Shr (rr 6) (rg 2) (im 3);
      Builder.sub f (rr 2) (rg 2) (rg 6))

let store_program ~trips =
  loop_program ~trips (fun f ->
      (* eight stores per iteration, one per cache line of the array *)
      for k = 0 to 7 do
        Builder.store f ~base:(rr 3) ~off:(k * 8) (rg 1)
      done;
      Builder.add f (rr 2) (rg 2) (im 8))

let branch_program ~trips =
  loop_program ~trips (fun f ->
      let then_ = Builder.block f "then" in
      let else_ = Builder.block f "else" in
      let join = Builder.block f "join" in
      Builder.binop f Instr.And (rr 5) (rg 1) (im 1);
      Builder.branch f (rg 5) then_ else_;
      Builder.switch f then_;
      Builder.add f (rr 2) (rg 2) (im 3);
      Builder.jump f join;
      Builder.switch f else_;
      Builder.sub f (rr 2) (rg 2) (im 1);
      Builder.jump f join;
      Builder.switch f join)

(* The three shapes at a given scale; bench/perfsmoke.ml replays these
   at tiny [trips] under both schedulers and diffs the results. *)
let dispatch_programs ~trips =
  [
    ("arith", arith_program ~trips); ("stores", store_program ~trips);
    ("branches", branch_program ~trips);
  ]

let dispatch_tests () =
  List.map
    (fun (shape, program) ->
      let compiled = compile program in
      Test.make
        ~name:(Printf.sprintf "dispatch: %s loop" shape)
        (Staged.stage (fun () ->
             let session =
               Executor.start ~program:compiled.Compiled.program
                 ~threads:[ Executor.main_thread compiled.Compiled.program ]
                 ()
             in
             match Executor.run session with
             | Executor.Finished r -> ignore r.Executor.cycles
             | Executor.Crashed _ -> assert false)))
    (dispatch_programs ~trips:10_000)

let benchmark () =
  let tests =
    Test.make_grouped ~name:"capri"
      ([ test_cache; test_liveness; test_compile; test_compile_kv; test_run ]
      @ dispatch_tests ())
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~r_square:false
                                      ~bootstrap:0 ~predictors:[| Measure.run |]) i raw)
      instances
  in
  let results = Analyze.merge (Analyze.ols ~r_square:false ~bootstrap:0
                                 ~predictors:[| Measure.run |]) instances results in
  results

let print () =
  print_endline "== Micro-benchmarks (Bechamel, monotonic clock)";
  let results = benchmark () in
  Hashtbl.iter
    (fun label tbl ->
      ignore label;
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "  %-40s %12.0f ns/run\n" name est
          | Some _ | None ->
            Printf.printf "  %-40s (no estimate)\n" name)
        tbl)
    results;
  print_newline ()
