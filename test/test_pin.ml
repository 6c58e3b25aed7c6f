(* Compiled output and execution results pinned byte for byte. Each
   compile case compiles a fixed program and compares one MD5 over its
   full compiled form — the program text, one row per region, the
   recovery table and the four pass reports — against a recorded
   constant. Each execution case runs a fixed compiled program and
   compares one MD5 over everything observable of the run: counters,
   outputs and acks, final registers and memory, persist and hierarchy
   statistics, the region profile, and crash images. Each profile case
   digests one [Profile.run]'s metrics document or hottest-regions
   table. A change meant to
   preserve output must keep every constant; one meant to change it
   re-records them and says why. A failure names every case whose
   output moved. *)

open Capri
module W = Capri_workloads
module Svc = Capri_service
module Comp = Capri_compiler

let digest (c : Compiled.t) =
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "%a@." Program.pp c.Compiled.program;
  List.iter
    (fun (r : Region_map.region) ->
      Format.fprintf fmt "region %d %s %s bound=%d %s members=%s@."
        r.Region_map.id r.Region_map.func
        (Label.to_string r.Region_map.head)
        r.Region_map.static_store_bound
        (Region_map.reason_name r.Region_map.reason)
        (String.concat ","
           (List.map Label.to_string
              (Label.Set.elements r.Region_map.members))))
    (Region_map.regions c.Compiled.regions);
  Hashtbl.fold (fun key v acc -> (key, v) :: acc) c.Compiled.recovery []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun ((boundary, reg), (rb : Comp.Prune.recovery)) ->
         Format.fprintf fmt "recovery %d r%d -> %a@.%a@." boundary reg Reg.pp
           rb.Comp.Prune.target Func.pp rb.Comp.Prune.code);
  let u = c.Compiled.unroll_report and p = c.Compiled.prune_report in
  let l = c.Compiled.licm_report in
  Format.fprintf fmt
    "unroll %d %d %d; ckpt %d; prune %d %d; licm %d %d@."
    u.Comp.Unroll.loops_seen u.Comp.Unroll.loops_unrolled
    u.Comp.Unroll.total_factor
    c.Compiled.ckpt_report.Comp.Ckpt.ckpts_inserted p.Comp.Prune.ckpts_pruned
    p.Comp.Prune.recovery_blocks l.Comp.Licm.ckpts_hoisted
    l.Comp.Licm.ckpts_deduped;
  Format.pp_print_flush fmt ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* "<kernel>/<fig9 config>" at threshold 256 and Suite.bench_scale. *)
let kernel_digests =
  [ ("505.mcf_r/region", "a0069365d83fbe0a41b6936ec2665729");
    ("505.mcf_r/+ckpt", "075759a5a294fdd5e6d70ad1f55893c9");
    ("505.mcf_r/+unrolling", "12db5922224516971c7252c6a4c7f253");
    ("505.mcf_r/+pruning", "12db5922224516971c7252c6a4c7f253");
    ("505.mcf_r/+licm", "6d763630bde763a184b26e82edaebb8d");
    ("531.deepsjeng_r/region", "9a6e83dba3a7d80406f373cfb1340c8e");
    ("531.deepsjeng_r/+ckpt", "fbd9a21f37e541e95a317c76ef5ab963");
    ("531.deepsjeng_r/+unrolling", "a5e9f87f039c821ff3ad812049f5e6d8");
    ("531.deepsjeng_r/+pruning", "a5e9f87f039c821ff3ad812049f5e6d8");
    ("531.deepsjeng_r/+licm", "5db2c11e4f68df314874a33838d5d409");
    ("541.leela_r/region", "c894ef0a47d06ce482cc39836fef13c4");
    ("541.leela_r/+ckpt", "19106613fd39372179737ed56abbc264");
    ("541.leela_r/+unrolling", "fc885ba21a97046b787fed0161941204");
    ("541.leela_r/+pruning", "fc885ba21a97046b787fed0161941204");
    ("541.leela_r/+licm", "a5933f662a93daafc4182a660327ed97");
    ("508.namd_r/region", "e8447c886cd1435444c60a1ee24f525e");
    ("508.namd_r/+ckpt", "df0b207a21ef1709fbde5912a0f7785e");
    ("508.namd_r/+unrolling", "6e3bbfe3331bd763abff9839052122c5");
    ("508.namd_r/+pruning", "6e3bbfe3331bd763abff9839052122c5");
    ("508.namd_r/+licm", "e158d9e2b4ef5e1886d7e1d2885c7f15");
    ("519.lbm_r/region", "bffee4d0261e79a9f88afc1ead5a3aab");
    ("519.lbm_r/+ckpt", "cd46e567425a1fccd5a02eb4a907d655");
    ("519.lbm_r/+unrolling", "99ef538e9035686cf3d907e9c0575280");
    ("519.lbm_r/+pruning", "99ef538e9035686cf3d907e9c0575280");
    ("519.lbm_r/+licm", "88cda362d6f6d66b1c89434eff403b10");
    ("genome/region", "60d3dccd277ea22550a698f9304a8e74");
    ("genome/+ckpt", "76ea7f7d73457ec499bd6c723717c278");
    ("genome/+unrolling", "2ad162b81aed490480200189035913b9");
    ("genome/+pruning", "2ad162b81aed490480200189035913b9");
    ("genome/+licm", "1cc31d22ca68cf63e87eb07a9b744e9d");
    ("intruder/region", "ce32f4ebfb4333ede2ee8b7259d3e07b");
    ("intruder/+ckpt", "8ce69e130f7b875983ecedb5397e30c7");
    ("intruder/+unrolling", "629da81aee18c31582b5ef9067a30cd9");
    ("intruder/+pruning", "629da81aee18c31582b5ef9067a30cd9");
    ("intruder/+licm", "0e2dbb03587e63c36770091bc699a918");
    ("labyrinth/region", "61af9299c0c8132cd01c616e38810484");
    ("labyrinth/+ckpt", "a7ed2534871a2382d9c7ea161f9f0ae7");
    ("labyrinth/+unrolling", "1abf3a8e56218ee05e16bea5e4b3a1c7");
    ("labyrinth/+pruning", "1abf3a8e56218ee05e16bea5e4b3a1c7");
    ("labyrinth/+licm", "a3b7c1f9e050e07761e9e512d5c728f3");
    ("ssca2/region", "23166a40d14094a7497a17d8bf5d66cd");
    ("ssca2/+ckpt", "0a705c68dd139a7e593955a8999f6c11");
    ("ssca2/+unrolling", "d23c51fc0193ca60fb08d20fe49116bb");
    ("ssca2/+pruning", "d23c51fc0193ca60fb08d20fe49116bb");
    ("ssca2/+licm", "a108bc06ba88d162d29c2c861a065d2b");
    ("vacation/region", "20c1e67bc5cbca11ef2d357d4ad6f6d4");
    ("vacation/+ckpt", "a7398d5073e651cf00f63bc39bf42c54");
    ("vacation/+unrolling", "4c87e203fe5483419c179d2e9aeb9fa8");
    ("vacation/+pruning", "4c87e203fe5483419c179d2e9aeb9fa8");
    ("vacation/+licm", "20df6d40ec447468f5936260ff8ddc59");
    ("barnes/region", "69cf0ae7806ef32b938c7b992f12b403");
    ("barnes/+ckpt", "6ef651889e5a4be85549fc92258cd31d");
    ("barnes/+unrolling", "6bddc35041a7e5ef40091c1a1cfd42eb");
    ("barnes/+pruning", "6bddc35041a7e5ef40091c1a1cfd42eb");
    ("barnes/+licm", "6bddc35041a7e5ef40091c1a1cfd42eb");
    ("fmm/region", "d93d6d69c9fbabe553e075610b21c0e8");
    ("fmm/+ckpt", "84300a8c30b7cccb83126373a8e2c644");
    ("fmm/+unrolling", "c809f24897bedf9e27485cd533e1d7ae");
    ("fmm/+pruning", "c809f24897bedf9e27485cd533e1d7ae");
    ("fmm/+licm", "c809f24897bedf9e27485cd533e1d7ae");
    ("ocean/region", "4c875f2a61aff1a72c6eafe20df57517");
    ("ocean/+ckpt", "3802f346fd1bc19f21c9ef14e209d19c");
    ("ocean/+unrolling", "b60a3471ecbd2d86b6a73f64fc0cacad");
    ("ocean/+pruning", "b60a3471ecbd2d86b6a73f64fc0cacad");
    ("ocean/+licm", "b60a3471ecbd2d86b6a73f64fc0cacad");
    ("radiosity/region", "8c74256e0dd04447097e1380a9fcb38f");
    ("radiosity/+ckpt", "541ab63fc4a738c513b8f515a5c7dcb7");
    ("radiosity/+unrolling", "21a4cdddd1c9f55c84e807b6c97ecad1");
    ("radiosity/+pruning", "21a4cdddd1c9f55c84e807b6c97ecad1");
    ("radiosity/+licm", "50d33012cb7fac3e116a9350c78d7906");
    ("raytrace/region", "c92c6d305dda47b8075e4ad1a2288b87");
    ("raytrace/+ckpt", "cb76d1ed9b904a30bd4dded5be2b02d0");
    ("raytrace/+unrolling", "6af87696311bf6bf95c3939179958968");
    ("raytrace/+pruning", "6af87696311bf6bf95c3939179958968");
    ("raytrace/+licm", "80a9d0250e53b4bce93829d1cf557613");
    ("volrend/region", "ab12154af1c7427c2be65e2d019e3307");
    ("volrend/+ckpt", "d310842bca6e72204deb24bb92a452cb");
    ("volrend/+unrolling", "5e50b5754dc86f6294cb26d810966298");
    ("volrend/+pruning", "5e50b5754dc86f6294cb26d810966298");
    ("volrend/+licm", "9d4d3d91efd09550d86d81aa2e62d651");
    ("water-nsquared/region", "34124fb0a9f43936b6aed66f54436d1b");
    ("water-nsquared/+ckpt", "e494704e3f02036b5271040f3ab718d6");
    ("water-nsquared/+unrolling", "1e29e2fdea15fa1b3d99b75a9f51bf12");
    ("water-nsquared/+pruning", "1e29e2fdea15fa1b3d99b75a9f51bf12");
    ("water-nsquared/+licm", "d255fa47cf7d3c0c9322ecdf530a99ed");
    ("water-spatial/region", "cddca0b079d7762d68f04a477496b649");
    ("water-spatial/+ckpt", "02999c47edac4a133bf8ae4989139e64");
    ("water-spatial/+unrolling", "34412de94c5ff47878f8c07c2233e66c");
    ("water-spatial/+pruning", "34412de94c5ff47878f8c07c2233e66c");
    ("water-spatial/+licm", "1e002717a3b79a2bc81ec8d27428094d");
    ("radix/region", "5f5d4b117ee704f9c5bf3750c9fd8338");
    ("radix/+ckpt", "1117f8c5021bf7d9aef4c30064903540");
    ("radix/+unrolling", "b66a50dd207835ef1473f5f588f25f85");
    ("radix/+pruning", "b66a50dd207835ef1473f5f588f25f85");
    ("radix/+licm", "b66a50dd207835ef1473f5f588f25f85") ]

(* One store of the kv-hot benchmark's shape: 2 shards, 64 keys, mix A,
   200 requests per shard, 4 cross-shard transactions, seed 10. *)
let kv_store_digest = "7610455bd3e739711ce110c24f0aa8cd"

let kv_store_cfg =
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
        seed = 10;
        txns = 4;
      };
    mode = Persist.Capri;
  }

let check_all ?(what = "compiled output") cases =
  let mismatches =
    List.filter_map
      (fun (name, expected, got) ->
        if String.equal got expected then None
        else Some (Printf.sprintf "%s: expected %S, got %S" name expected got))
      cases
  in
  if mismatches <> [] then
    Alcotest.failf "%s differs:\n%s" what (String.concat "\n" mismatches)

let test_kernels () =
  let kernels = W.Suite.all ~scale:W.Suite.bench_scale () in
  check_all
    (List.concat_map
       (fun (k : W.Kernel.t) ->
         List.map
           (fun (config, options) ->
             let name = k.W.Kernel.name ^ "/" ^ config in
             let expected =
               Option.value ~default:"" (List.assoc_opt name kernel_digests)
             in
             ( name, expected,
               digest
                 (Pipeline.compile (Options.with_threshold 256 options)
                    k.W.Kernel.program) ))
           Options.fig9_configs)
       kernels);
  Alcotest.(check int) "19 kernels x 5 configs" (19 * 5)
    (List.length kernel_digests)

let test_kv_store () =
  check_all
    [
      ( "kv-hot store (seed 10)", kv_store_digest,
        digest (Svc.Server.plan kv_store_cfg).Svc.Server.compiled );
    ]

(* One MD5 per threshold over the [digest]s of a list of compiles, in
   order. *)
let digest_compiles compiled =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map digest compiled)))

let fig9_compiles ~threshold program =
  List.map
    (fun (_, options) ->
      Pipeline.compile (Options.with_threshold threshold options) program)
    Options.fig9_configs

(* The 19 kernels at Suite.bench_scale x the five fig9 configs, at each of
   fig8's thresholds but 256, which [kernel_digests] pins per compile. *)
let fig8_threshold_digests =
  [ (32, "67e3386192d27b5c41f32bd068fa87b5");
    (64, "f82293b163ca47edcf683f6e3bc8ec1a");
    (128, "112420238358482ce5bbbcb1a57ef840");
    (512, "8a0018875d442b8b847fd815376e7310");
    (1024, "b2a517fe64d9c8a8e2921d17022999ed") ]

let test_fig8_thresholds () =
  let kernels = W.Suite.all ~scale:W.Suite.bench_scale () in
  check_all
    (List.map
       (fun (threshold, expected) ->
         ( Printf.sprintf "19 kernels x 5 configs @%d" threshold, expected,
           digest_compiles
             (List.concat_map
                (fun (k : W.Kernel.t) ->
                  fig9_compiles ~threshold k.W.Kernel.program)
                kernels) ))
       fig8_threshold_digests);
  Alcotest.(check (list int)) "fig8's thresholds"
    (List.filter (( <> ) 256) Options.fig8_thresholds)
    (List.map fst fig8_threshold_digests)

(* Gen.program_of_seed for seeds 0-199 x the five fig9 configs, one MD5
   per threshold. 79 of the programs call their leaf function and 520 of
   the 3,000 compiles emit recovery blocks, so the interprocedural
   liveness rules and Prune's slicing are covered. *)
let gen_threshold_digests =
  [ (16, "308930e714889323c9882279a9ee29b1");
    (64, "ec95b459254fd6d02334ccb6368b28cd");
    (256, "5469233397314ec9a6af6ee8df6d2d56") ]

let test_gen_programs () =
  let programs = List.init 200 W.Gen.program_of_seed in
  let calls (p : Program.t) =
    List.exists
      (fun f ->
        List.exists
          (fun (b : Block.t) ->
            match b.Block.term with Instr.Call _ -> true | _ -> false)
          (Func.blocks f))
      p.Program.funcs
  in
  Alcotest.(check int) "programs with calls" 79
    (List.length (List.filter calls programs));
  let recovering = ref 0 in
  check_all
    (List.map
       (fun (threshold, expected) ->
         let compiled =
           List.concat_map (fig9_compiles ~threshold) programs
         in
         List.iter
           (fun (c : Compiled.t) ->
             if c.Compiled.prune_report.Comp.Prune.recovery_blocks > 0 then
               incr recovering)
           compiled;
         ( Printf.sprintf "gen seeds 0-199 x 5 configs @%d" threshold,
           expected, digest_compiles compiled ))
       gen_threshold_digests);
  Alcotest.(check int) "compiles with recovery blocks" 520 !recovering

(* ------------------------------------------------------------------ *)
(* Execution results.                                                  *)
(* ------------------------------------------------------------------ *)

let md5 v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let lines mem =
  let acc = ref [] in
  Memory.iter_lines mem (fun l data -> acc := (l, Array.to_list data) :: !acc);
  List.sort compare !acc

(* bench/perfsmoke.ml's fingerprint plus the region statistics and the
   per-boundary profile of the regions that closed, sorted by boundary
   id. *)
let observed (r : Executor.result) =
  let profile =
    Array.to_list r.Executor.profile
    |> List.filter_map (fun (row : Executor.region_row) ->
           if row.Executor.executions = 0 then None
           else
             Some
               ( row.Executor.id, row.Executor.executions, row.Executor.instrs,
                 row.Executor.stores, row.Executor.max_stores ))
  in
  ( ( r.Executor.cycles, r.Executor.instrs, r.Executor.payload_instrs,
      r.Executor.stores, r.Executor.ckpt_stores, r.Executor.boundaries ),
    ( r.Executor.outputs, r.Executor.acks, r.Executor.final_regs,
      r.Executor.stale_reads ),
    (r.Executor.persist_stats, r.Executor.hier_stats),
    lines r.Executor.memory,
    (r.Executor.region_stats, profile) )

let image_view (i : Persist.image) =
  ( lines i.Persist.nvm, i.Persist.resume, i.Persist.slots, i.Persist.journal,
    i.Persist.acked, i.Persist.acked_base, i.Persist.replayed )

let finished name = function
  | Executor.Finished r -> r
  | Executor.Crashed _ -> Alcotest.failf "%s: unexpected crash" name

(* "<kernel>/<mode>": default options at threshold 256, Suite.bench_scale,
   crash-free. "<kernel>/crash": one crash at half the Capri run's
   instructions — the crash point, the image, the slots after recovery
   blocks and the resumed run. *)
let run_digests =
  [ ("505.mcf_r/capri", "edde0069dca9094b84e68eb53704d70a");
    ("505.mcf_r/naive-sync", "7d2f352a90a97defee55b1cbee37f3de");
    ("505.mcf_r/undo-sync", "7d2f352a90a97defee55b1cbee37f3de");
    ("505.mcf_r/redo-nowb", "2649400e3b614adc85ad2b4c243c6fe2");
    ("505.mcf_r/volatile", "657ad56b2a46fb9965648b1b0cbef968");
    ("505.mcf_r/crash", "db03dc80c48291d1083758253bb27c12");
    ("531.deepsjeng_r/capri", "781ed972d7b3077a5c5c29f52c47442c");
    ("531.deepsjeng_r/naive-sync", "0e0098ec47f60cf8099d6027a4f91770");
    ("531.deepsjeng_r/undo-sync", "0e0098ec47f60cf8099d6027a4f91770");
    ("531.deepsjeng_r/redo-nowb", "76ba426346f55f096589ccc65a1b0896");
    ("531.deepsjeng_r/volatile", "c61d893a428f0c5d876426b62eb7ba43");
    ("531.deepsjeng_r/crash", "8b94f315bb672c5102f9f2c37e99bbbc");
    ("541.leela_r/capri", "f53f7a5604f0b41f3b682a9f7c6b01d5");
    ("541.leela_r/naive-sync", "d043b9a24b2ce4ccbe72e25109ba98f6");
    ("541.leela_r/undo-sync", "d043b9a24b2ce4ccbe72e25109ba98f6");
    ("541.leela_r/redo-nowb", "674a37fcdfa3ffe218a9d03f8f629c5d");
    ("541.leela_r/volatile", "ffa119f5e7f292567a65b54716ac908b");
    ("541.leela_r/crash", "652e95a4d362f49c92b94ef340720573");
    ("508.namd_r/capri", "22d51bb9c02b5e37fc9069695a0e0cf3");
    ("508.namd_r/naive-sync", "300975684d4039750c9623b888bbe25a");
    ("508.namd_r/undo-sync", "300975684d4039750c9623b888bbe25a");
    ("508.namd_r/redo-nowb", "1796e3b6b3f7d739c60b2aa7b1805ecd");
    ("508.namd_r/volatile", "c5d53bdff015f5bb8371a501c3ad7278");
    ("508.namd_r/crash", "ed83929200426f18caee54e82a29eeb0");
    ("519.lbm_r/capri", "a7d0b633ae66b1f25718003c71cd114e");
    ("519.lbm_r/naive-sync", "c3cd8c4b8264540d69d08ee8236ef137");
    ("519.lbm_r/undo-sync", "c3cd8c4b8264540d69d08ee8236ef137");
    ("519.lbm_r/redo-nowb", "4978e8920afeaec3451d5f8eca41e72c");
    ("519.lbm_r/volatile", "9f05f107a6e57da35fff02679d754b7d");
    ("519.lbm_r/crash", "c9a71607f795d151ecaf9ad778b4d2a8");
    ("genome/capri", "a00e7862f1d039c59c06be119baba7a1");
    ("genome/naive-sync", "8822af22e8b9919ccb93df58a2d161b9");
    ("genome/undo-sync", "8822af22e8b9919ccb93df58a2d161b9");
    ("genome/redo-nowb", "a6c700359e7791270c40e95da2878854");
    ("genome/volatile", "e0aaa9dc4c0893f1e0f89598171106f4");
    ("genome/crash", "6cd017733b11c3b5efaa0f04cc6b72be");
    ("intruder/capri", "0f54aec35b31fdb0c6a6eafa128efa08");
    ("intruder/naive-sync", "1332565d63efe4852e69bcd4fe7def6d");
    ("intruder/undo-sync", "1332565d63efe4852e69bcd4fe7def6d");
    ("intruder/redo-nowb", "ca9eea3355434f0b93432a23b0732e9a");
    ("intruder/volatile", "0631ae40e7f6f7414170f21574fd96fa");
    ("intruder/crash", "6612b0ba1b6e83b61f6fb149e7b0705b");
    ("labyrinth/capri", "49782b556443eda426ab4e35243e1ac7");
    ("labyrinth/naive-sync", "c5e8443af2c51bae204ffbbdd2f830ee");
    ("labyrinth/undo-sync", "c5e8443af2c51bae204ffbbdd2f830ee");
    ("labyrinth/redo-nowb", "4fa02d8b95f70307db61f9219cfd085f");
    ("labyrinth/volatile", "04d5fd6914ada27ed3b9c88cda1fa60e");
    ("labyrinth/crash", "e0d7e23302b65ce3f94a9089adad48e7");
    ("ssca2/capri", "d5edcf39f8d41a6c08f6b14c0910430e");
    ("ssca2/naive-sync", "453047e3e5ea5c2778b05292afb8a5f3");
    ("ssca2/undo-sync", "453047e3e5ea5c2778b05292afb8a5f3");
    ("ssca2/redo-nowb", "06a43eeb5fad5c9f28d49de5d7aeda70");
    ("ssca2/volatile", "cd3f86d470e9ec89e3e4990f3248a163");
    ("ssca2/crash", "812926aa62b3e63e52ecf6ad68251ab3");
    ("vacation/capri", "ca6aadeea9977093fc25d4f97d797b4d");
    ("vacation/naive-sync", "7e1a5c641afa8c272d48788155091407");
    ("vacation/undo-sync", "7e1a5c641afa8c272d48788155091407");
    ("vacation/redo-nowb", "04500759f1cf7ab77b966011a4705d5f");
    ("vacation/volatile", "88fcd37ba057fb712f765a39b08413bd");
    ("vacation/crash", "bfdeea1dff795daebe5b42a1ea06d32f");
    ("barnes/capri", "7833639a14095ad6df9be8e12d48b68d");
    ("barnes/naive-sync", "d352699437fca98d85e6226bcd883633");
    ("barnes/undo-sync", "d352699437fca98d85e6226bcd883633");
    ("barnes/redo-nowb", "2413d37add2d2d9f9eabebbfc3aae08b");
    ("barnes/volatile", "6bab4fdb39ce4c9eec35a9babd6099ab");
    ("barnes/crash", "81d37d914646c8b36404a25a19aabfd4");
    ("fmm/capri", "2850ee7918572dc399d26613b91bcba3");
    ("fmm/naive-sync", "0b872e3aa3b3af43dd638fea5bdd3e0c");
    ("fmm/undo-sync", "0b872e3aa3b3af43dd638fea5bdd3e0c");
    ("fmm/redo-nowb", "9be7949982f2bd3fb86c351f12a9dc54");
    ("fmm/volatile", "f70496fc6c888fc6ddfb766723ef3131");
    ("fmm/crash", "21db77b6dcfb29a65afce0b4e8daa275");
    ("ocean/capri", "67b74233a50bfc399f8a58bec0811320");
    ("ocean/naive-sync", "d50589723b4ae1ed3ce33fcb1934d8ed");
    ("ocean/undo-sync", "d50589723b4ae1ed3ce33fcb1934d8ed");
    ("ocean/redo-nowb", "aeac74cd82a466d360513de0f8087256");
    ("ocean/volatile", "93c4eced7f3251549c6dd248658961a5");
    ("ocean/crash", "139e249724b70dad3456825775f1c69b");
    ("radiosity/capri", "a6af953716032e537944638842d8a6e7");
    ("radiosity/naive-sync", "f4a86cc1167befcf9374529e2a839ced");
    ("radiosity/undo-sync", "f4a86cc1167befcf9374529e2a839ced");
    ("radiosity/redo-nowb", "8d6f1fabc701211f5409c6ef392825ba");
    ("radiosity/volatile", "81c24825123e5e0090b8eb2f41069075");
    ("radiosity/crash", "e6233ae2311ff58e71759b9508add1db");
    ("raytrace/capri", "28cc7e2dac7505bedd11fc6efbf10543");
    ("raytrace/naive-sync", "d43a57162ae66f0f68c31674d1dd5ffd");
    ("raytrace/undo-sync", "d43a57162ae66f0f68c31674d1dd5ffd");
    ("raytrace/redo-nowb", "28cc7e2dac7505bedd11fc6efbf10543");
    ("raytrace/volatile", "610f01168c011cc25cbe7f874f9d06a0");
    ("raytrace/crash", "dcc2a469c7489582198a568b3da8d5ca");
    ("volrend/capri", "81a580a5e2c2657739cbc3199a1da900");
    ("volrend/naive-sync", "054cfff8d00e64315ced5f2b8e696ce8");
    ("volrend/undo-sync", "054cfff8d00e64315ced5f2b8e696ce8");
    ("volrend/redo-nowb", "471efe59364cd51d18cc408b41c9a16d");
    ("volrend/volatile", "34aec248fbfe5eaa70814ee29580bd15");
    ("volrend/crash", "fd4435b17b92d9436246405d8fe01599");
    ("water-nsquared/capri", "3035d1bfd727e898eca199a37d03577e");
    ("water-nsquared/naive-sync", "b6cccb1f14c1e88b7e9bac2d2568a66e");
    ("water-nsquared/undo-sync", "b6cccb1f14c1e88b7e9bac2d2568a66e");
    ("water-nsquared/redo-nowb", "7356a0655ca99c182396855911f82a7d");
    ("water-nsquared/volatile", "a590b053e640dab5a78fa9124b654f20");
    ("water-nsquared/crash", "ad3f42e3a2be3ecbb2449772dd191503");
    ("water-spatial/capri", "39a849493f36d0afad9019465ff07876");
    ("water-spatial/naive-sync", "933f9d0135b24363987ce0a2d6f1803c");
    ("water-spatial/undo-sync", "933f9d0135b24363987ce0a2d6f1803c");
    ("water-spatial/redo-nowb", "b77b934e77d57beacf7bdc433a41e394");
    ("water-spatial/volatile", "520ede757a439ed7172d99f0795039b5");
    ("water-spatial/crash", "d4ccf4dafaf9024e7889b13a4c99eb93");
    ("radix/capri", "263234a15c7c8988d3e26010cec524c2");
    ("radix/naive-sync", "5dca2191e256a50b44334216cb6ef7a3");
    ("radix/undo-sync", "5dca2191e256a50b44334216cb6ef7a3");
    ("radix/redo-nowb", "f05c8d01bea1591ed60fb0f406452686");
    ("radix/volatile", "c6a89ddb89e3436753f069a5d73358fa");
    ("radix/crash", "600b22acbdb1a6b16c9b4ec855734775") ]

let test_kernel_runs () =
  let options = Options.with_threshold 256 Options.default in
  check_all ~what:"execution"
    (List.concat_map
       (fun (k : W.Kernel.t) ->
         let compiled = Pipeline.compile options k.W.Kernel.program in
         let threads = k.W.Kernel.threads in
         let start mode =
           Executor.start ~mode ~program:compiled.Compiled.program ~threads ()
         in
         let case suffix got =
           let name = k.W.Kernel.name ^ "/" ^ suffix in
           ( name,
             Option.value ~default:"" (List.assoc_opt name run_digests),
             got )
         in
         let modes =
           List.map
             (fun mode ->
               let name = Persist.mode_name mode in
               (mode, finished name (Executor.run (start mode))))
             Persist.all_modes
         in
         let total = (List.assoc Persist.Capri modes).Executor.instrs in
         let session = start Persist.Capri in
         let crash =
           match Executor.run ~crash_at_instr:(max 1 (total / 2)) session with
           | Executor.Finished _ ->
             Alcotest.failf "%s: crash did not fire" k.W.Kernel.name
           | Executor.Crashed c ->
             (* The image as the crash left it: recovery blocks update
                its slots in place. *)
             let image = md5 (image_view c.Executor.image) in
             ignore
               (Recovery.apply_recovery_blocks_per_core compiled
                  c.Executor.image);
             let resumed =
               Executor.resume ~compiled ~image:c.Executor.image session
               |> Executor.run |> finished k.W.Kernel.name
             in
             ( c.Executor.at_instr, c.Executor.at_cycle,
               c.Executor.outputs_before, image, c.Executor.image.Persist.slots,
               observed resumed )
         in
         List.map
           (fun (mode, r) -> case (Persist.mode_name mode) (md5 (observed r)))
           modes
         @ [ case "crash" (md5 crash) ])
       (W.Suite.all ~scale:W.Suite.bench_scale ()));
  Alcotest.(check int) "19 kernels x (5 modes + crash)" (19 * 6)
    (List.length run_digests)

(* The kv-hot store above through [Server.run]: crash-free, and with two
   crashes at a third of the crash-free run's instructions each (images
   as [Server.run] returns them, recovery blocks applied). *)
let store_run_digests =
  [ ("kv-hot store/crash-free", "6ce2e831024fa013b632686351520af8");
    ("kv-hot store/2 crashes", "afff9684e5ad49c65934977baa1b86cf") ]

(* Everything a served run reports: acks, final tables, clocks, every
   kept image, the recovery bill and the result. *)
let served_view (o : Svc.Server.outcome) =
  md5
    ( ( o.Svc.Server.acks, o.Svc.Server.final, o.Svc.Server.cycles,
        List.map image_view o.Svc.Server.images ),
      ( o.Svc.Server.recoveries, o.Svc.Server.recovery_blocks,
        o.Svc.Server.recovery_replayed, o.Svc.Server.recovery_tail,
        o.Svc.Server.recovery_cycles, o.Svc.Server.downtime ),
      observed o.Svc.Server.result )

let test_store_runs () =
  let t = Svc.Server.plan kv_store_cfg in
  let view = served_view in
  let free = Svc.Server.run t in
  let total = free.Svc.Server.result.Executor.instrs in
  let crashed = Svc.Server.run ~crash_at:[ total / 3; total / 3 ] t in
  Alcotest.(check int) "two recoveries" 2 crashed.Svc.Server.recoveries;
  let case name o =
    ( name, Option.value ~default:"" (List.assoc_opt name store_run_digests),
      view o )
  in
  check_all ~what:"execution"
    [
      case "kv-hot store/crash-free" free;
      case "kv-hot store/2 crashes" crashed;
    ]

(* Two stores served with an enabled [Obs] and two crashes at a third
   of the crash-free run each, read through every reporting lens: the
   metrics snapshot, the Perfetto trace, the SLO report graded against
   both targets, the windowed timeline, the run's stats and the
   per-tenant served/p99 rows. *)
let served_digests =
  [ ("pinned txn store/metrics", "2b3bbbac243f415f9bf5bbe411805bcb");
    ("pinned txn store/trace", "b0e5c62f791134f3716c2bdca61c820d");
    ("pinned txn store/slo report", "dbc067b0e90fcee49fea22d9370ce15a");
    ("pinned txn store/timeline", "b9af3a4775b4783da19fe64e9321ef2f");
    ("pinned txn store/stats", "2f767a925019ce3d7ba6554df2865e2e");
    ("pinned txn store/tenants", "d41d8cd98f00b204e9800998ecf8427e");
    ("scheduled tenant store/metrics", "13d1f1da5899ed96b55559dbaa86ac12");
    ("scheduled tenant store/trace", "01a2213c34214ac610af7bbd5556215b");
    ("scheduled tenant store/slo report", "3eaa250fbdb7950aa7f8982e632d38c5");
    ("scheduled tenant store/timeline", "dc77612f6df56414b3d99ac94f655736");
    ("scheduled tenant store/stats", "694f8d11257626466f9af7d5d4a588f6");
    ("scheduled tenant store/tenants", "a013b142a80f14c26d5baf02b69a334a") ]

let served_cfgs =
  let client = { Svc.Client.default with Svc.Client.ops_per_shard = 60 } in
  [ ( "pinned txn store",
      {
        Svc.Server.default_cfg with
        Svc.Server.client =
          { client with Svc.Client.mix = Svc.Client.A; txns = 2 };
      } );
    ( "scheduled tenant store",
      {
        Svc.Server.default_cfg with
        Svc.Server.client;
        sched = Some { Svc.Sched.cores = 2; quantum = 4; steal = true };
        tenants = Some (Svc.Client.noisy_tenants ~tenants:3 ~skew:1.2);
        hot_txns = 2;
      } ) ]

let test_served_views () =
  let text s = Digest.to_hex (Digest.string s) in
  check_all ~what:"served views"
    (List.concat_map
       (fun (name, cfg) ->
         let t = Svc.Server.plan cfg in
         let total = (Svc.Server.run t).Svc.Server.result.Executor.instrs in
         let obs = Capri_obs.Obs.create () in
         let o = Svc.Server.run ~obs ~crash_at:[ total / 3; total / 3 ] t in
         let tenants =
           Svc.Slo.tenant_rows ~t o
           |> List.map (fun (r : Svc.Slo.tenant_row) ->
                  Printf.sprintf "%d %d %h\n" r.Svc.Slo.tenant
                    r.Svc.Slo.t_served r.Svc.Slo.t_p99)
           |> String.concat ""
         in
         List.map
           (fun (lens, got) ->
             let key = name ^ "/" ^ lens in
             ( key,
               Option.value ~default:"" (List.assoc_opt key served_digests),
               text got ))
           [ ("metrics", Capri_obs.Metrics.to_json obs.Capri_obs.Obs.metrics);
             ( "trace",
               Capri_obs.Tracer.to_chrome_json obs.Capri_obs.Obs.tracer );
             ( "slo report",
               Format.asprintf "%a" Svc.Slo.pp_report
                 (Svc.Slo.report ~slo_p99:1000 ~slo_avail:0.9 ~t o) );
             ("timeline", Svc.Slo.render_timeline (Svc.Slo.timeline ~t o));
             ( "stats",
               Format.asprintf "%a" Svc.Sla.pp_stats (Svc.Server.stats t o) );
             ("tenants", tenants) ])
       served_cfgs)

(* Multi-crash drives: "<program>/<mode>/<n> crashes" runs
   [Verify.run_with_crashes] with crash points at fractions of the
   crash-free run and pins the result, the recoveries and the recovery
   blocks it reports. The programs: four kernels at Suite.bench_scale
   and threshold 256 (ocean on four cores), and a generated two-core
   program at threshold 16, whose crashes run recovery blocks.
   "gen/journaled/2 crashes" crashes the generated program twice with
   the output journal on. *)
let crash_drive_digests =
  [ ("505.mcf_r/capri/2 crashes", "ed17c8c175465db8b22653112729cb3e");
    ("505.mcf_r/capri/3 crashes", "b46aa031b60c6b906621218c05e1bf0a");
    ("505.mcf_r/undo-sync/2 crashes", "09fb08c27fab7924a18431daec0ae11a");
    ("505.mcf_r/undo-sync/3 crashes", "af1bdef64dfe42880757d374b07da58c");
    ("genome/capri/2 crashes", "063f1450960514c48dfa5d62b05ab9fd");
    ("genome/capri/3 crashes", "0e559ee102e27a8db7534f50f6a44114");
    ("genome/undo-sync/2 crashes", "7c4c37c5ac85ff51f45c6aabd1ba4fb8");
    ("genome/undo-sync/3 crashes", "9e23020cfe4e1bbded771a72214309dc");
    ("ocean/capri/2 crashes", "808d1931b4e778f22853411177b69b9d");
    ("ocean/capri/3 crashes", "6c5118d5044a384bcf3bb95c5c363875");
    ("ocean/undo-sync/2 crashes", "6bb3e775a204dc09fbfb65161888c518");
    ("ocean/undo-sync/3 crashes", "e6c99ad120ad0811e005b61231d809b2");
    ("radix/capri/2 crashes", "21e8df8635dc417d60be9ad70558b9bc");
    ("radix/capri/3 crashes", "cbfc137c19ff64797403f23d5c626d9e");
    ("radix/undo-sync/2 crashes", "4caee82435fe451eba6fc61ad2de6c30");
    ("radix/undo-sync/3 crashes", "590a33f0030a1e410277b63aabd8d0e5");
    ("gen/capri/2 crashes", "58bc89a7272d10f11feab21f350683c2");
    ("gen/capri/3 crashes", "81944a394623109817d3d0816ba3c20b");
    ("gen/undo-sync/2 crashes", "df9266c2d93ac1e8c6745e467a98c5d1");
    ("gen/undo-sync/3 crashes", "d3105b082950e2afcc717908ac1514e3");
    ("gen/journaled/2 crashes", "9718eeecdbcae206869fbbd7ec3e0c3d") ]

let journaled_drive ~crash_at compiled threads =
  let recoveries = ref 0 and blocks = ref 0 in
  let on_crash _ per_core =
    incr recoveries;
    blocks := !blocks + Array.fold_left ( + ) 0 per_core
  in
  let r =
    Recovery.drive ~on_crash ~crash_at compiled
      (Recovery.machine ~journal_io:true ~threads compiled)
  in
  (r, !recoveries, !blocks)

let test_crash_drives () =
  let view (r, recoveries, blocks) = md5 (observed r, recoveries, blocks) in
  let case name got =
    ( name, Option.value ~default:"" (List.assoc_opt name crash_drive_digests),
      got )
  in
  let schedules n = [ [ n / 4; n / 4 ]; [ n / 4; n / 5; n / 6 ] ] in
  let kernel name =
    let k = W.Suite.by_name ~scale:W.Suite.bench_scale name in
    ( name,
      Pipeline.compile (Options.with_threshold 256 Options.default)
        k.W.Kernel.program,
      k.W.Kernel.threads )
  in
  let gen_program, gen_threads =
    W.Gen.lower (W.Gen.generate ~cores:2 ~array_words:64 22)
  in
  let gen =
    Pipeline.compile (Options.with_threshold 16 Options.default) gen_program
  in
  let drives =
    List.concat_map
      (fun (name, compiled, threads) ->
        let n = (Verify.reference ~threads compiled).Executor.instrs in
        List.concat_map
          (fun mode ->
            List.map
              (fun crash_at ->
                case
                  (Printf.sprintf "%s/%s/%d crashes" name
                     (Persist.mode_name mode) (List.length crash_at))
                  (view
                     (Verify.run_with_crashes ~crash_at compiled
                        (Recovery.machine ~mode ~threads compiled))))
              (schedules n))
          [ Persist.Capri; Persist.Undo_sync ])
      (List.map kernel [ "505.mcf_r"; "genome"; "ocean"; "radix" ]
       @ [ ("gen", gen, gen_threads) ])
  in
  let journaled =
    let r, _, _ = journaled_drive ~crash_at:[] gen gen_threads in
    let n = r.Executor.instrs in
    case "gen/journaled/2 crashes"
      (view (journaled_drive ~crash_at:[ n / 4; n / 4 ] gen gen_threads))
  in
  check_all ~what:"execution" (drives @ [ journaled ]);
  Alcotest.(check int) "5 programs x 2 modes x 2 schedules + journaled" 21
    (List.length crash_drive_digests)

(* The other two recoverable modes through the same drives, and a
   preloaded store restarted twice in every recoverable mode.
   "<program>/<mode>/<n> crashes" as above, in Naive_sync and Redo_nowb
   (which drops dirty writebacks and counts stale reads against NVM).
   "preloaded store/<mode>": 2 x 10^4 preloaded keys, journal compaction
   every 16 commits, two transactions, served through [Server.run] with
   two crashes at a third of the crash-free run each — the outcome and
   every kept image. *)
let restart_digests =
  [ ("505.mcf_r/naive-sync/2 crashes", "09fb08c27fab7924a18431daec0ae11a");
    ("505.mcf_r/naive-sync/3 crashes", "af1bdef64dfe42880757d374b07da58c");
    ("505.mcf_r/redo-nowb/2 crashes", "2bed3b2e33dcb9f1b6ce8239e2e17701");
    ("505.mcf_r/redo-nowb/3 crashes", "d43fbc275a6182b1a38b27aee95fc922");
    ("genome/naive-sync/2 crashes", "7c4c37c5ac85ff51f45c6aabd1ba4fb8");
    ("genome/naive-sync/3 crashes", "9e23020cfe4e1bbded771a72214309dc");
    ("genome/redo-nowb/2 crashes", "72f7686e1328844f04347503e491f43d");
    ("genome/redo-nowb/3 crashes", "9cf3004839278cf0d3121e92217aadcb");
    ("ocean/naive-sync/2 crashes", "6bb3e775a204dc09fbfb65161888c518");
    ("ocean/naive-sync/3 crashes", "e6c99ad120ad0811e005b61231d809b2");
    ("ocean/redo-nowb/2 crashes", "4ffff68612fdb20b234b23f13ba4645f");
    ("ocean/redo-nowb/3 crashes", "53025261479dbc4d969a15b9204ecb0b");
    ("radix/naive-sync/2 crashes", "4caee82435fe451eba6fc61ad2de6c30");
    ("radix/naive-sync/3 crashes", "590a33f0030a1e410277b63aabd8d0e5");
    ("radix/redo-nowb/2 crashes", "0cd68ce7c8d58bcaa65e2b9c1c962cc9");
    ("radix/redo-nowb/3 crashes", "298b7c574f1082bd660f0a30deee3708");
    ("gen/naive-sync/2 crashes", "df9266c2d93ac1e8c6745e467a98c5d1");
    ("gen/naive-sync/3 crashes", "d3105b082950e2afcc717908ac1514e3");
    ("gen/redo-nowb/2 crashes", "28f848aa2cedfd2945b632af86b4427a");
    ("gen/redo-nowb/3 crashes", "34de9d26b13635e59a2b77cec29d377a");
    ("preloaded store/capri", "c0cfe57930cd070bdfa0d22b6d287e7f");
    ("preloaded store/naive-sync", "e4bc98693e0282b321a22ff97caf702c");
    ("preloaded store/undo-sync", "e4bc98693e0282b321a22ff97caf702c");
    ("preloaded store/redo-nowb", "e605a064ed81a1c3949572c404f153c6") ]

let preloaded_cfg mode =
  let keys = 10_000 in
  {
    Svc.Server.default_cfg with
    Svc.Server.shards = 2;
    client =
      {
        Svc.Client.default with
        Svc.Client.mix = Svc.Client.A;
        key_space = keys;
        ops_per_shard = 40;
        txns = 2;
      };
    mode;
    config = { Config.sim_default with Config.compact_interval = 16 };
    preload = Svc.Kvstore.synthetic_preload ~shards:2 ~keys;
  }

let test_restarts () =
  let case name got =
    ( name, Option.value ~default:"" (List.assoc_opt name restart_digests),
      got )
  in
  let schedules n = [ [ n / 4; n / 4 ]; [ n / 4; n / 5; n / 6 ] ] in
  let kernel name =
    let k = W.Suite.by_name ~scale:W.Suite.bench_scale name in
    ( name,
      Pipeline.compile (Options.with_threshold 256 Options.default)
        k.W.Kernel.program,
      k.W.Kernel.threads )
  in
  let gen_program, gen_threads =
    W.Gen.lower (W.Gen.generate ~cores:2 ~array_words:64 22)
  in
  let gen =
    Pipeline.compile (Options.with_threshold 16 Options.default) gen_program
  in
  let drives =
    List.concat_map
      (fun (name, compiled, threads) ->
        let n = (Verify.reference ~threads compiled).Executor.instrs in
        List.concat_map
          (fun mode ->
            List.map
              (fun crash_at ->
                let r, recoveries, blocks =
                  Verify.run_with_crashes ~crash_at compiled
                    (Recovery.machine ~mode ~threads compiled)
                in
                case
                  (Printf.sprintf "%s/%s/%d crashes" name
                     (Persist.mode_name mode) (List.length crash_at))
                  (md5 (observed r, recoveries, blocks)))
              (schedules n))
          [ Persist.Naive_sync; Persist.Redo_nowb ])
      (List.map kernel [ "505.mcf_r"; "genome"; "ocean"; "radix" ]
       @ [ ("gen", gen, gen_threads) ])
  in
  let stores =
    List.map
      (fun mode ->
        let t = Svc.Server.plan (preloaded_cfg mode) in
        let total = (Svc.Server.run t).Svc.Server.result.Executor.instrs in
        let o = Svc.Server.run ~crash_at:[ total / 3; total / 3 ] t in
        Alcotest.(check int) "two recoveries" 2 o.Svc.Server.recoveries;
        case ("preloaded store/" ^ Persist.mode_name mode) (served_view o))
      (List.filter Persist.crash_recoverable Persist.all_modes)
  in
  check_all ~what:"execution" (drives @ stores);
  Alcotest.(check int) "5 programs x 2 modes x 2 schedules + 4 stores" 24
    (List.length restart_digests)

(* ------------------------------------------------------------------ *)
(* Observed profiles.                                                  *)
(* ------------------------------------------------------------------ *)

(* "<program>/<focus mode>/<lens>": [Profile.run] focused on each mode in
   turn, with all five modes run, read through its merged metrics
   document and its whole hottest-regions table. Every mode's run
   profiles its regions, so one program's metrics document is the same
   under every focus; the table is the focus run's. The programs: radix at
   scale 2 and threshold 64 (obs/smoke.exe's input), ocean on four cores
   at scale 6 under the default options (examples/profile_stencil.ml's)
   and the generated two-core program of the crash drives at threshold
   16, whose compile emits recovery blocks. *)
let profile_digests =
  [ ("radix/capri/metrics", "dfac99f1dd3f5da2850ddee5160254ee");
    ("radix/capri/top", "0f15ef1cfbe54f761e374296bffeaad8");
    ("radix/naive-sync/metrics", "dfac99f1dd3f5da2850ddee5160254ee");
    ("radix/naive-sync/top", "eb17c909a8749b44a7301c11b711f795");
    ("radix/undo-sync/metrics", "dfac99f1dd3f5da2850ddee5160254ee");
    ("radix/undo-sync/top", "eb17c909a8749b44a7301c11b711f795");
    ("radix/redo-nowb/metrics", "dfac99f1dd3f5da2850ddee5160254ee");
    ("radix/redo-nowb/top", "0f15ef1cfbe54f761e374296bffeaad8");
    ("radix/volatile/metrics", "dfac99f1dd3f5da2850ddee5160254ee");
    ("radix/volatile/top", "5a101dcec944f08e960cdc2b8c4af2b7");
    ("ocean/capri/metrics", "870506409607e82757eac078ee6800d6");
    ("ocean/capri/top", "07bcb6d6ae68dcadf6304822b074f0e8");
    ("ocean/naive-sync/metrics", "870506409607e82757eac078ee6800d6");
    ("ocean/naive-sync/top", "bee92bbd9c703f9e77127e9e975ef0c5");
    ("ocean/undo-sync/metrics", "870506409607e82757eac078ee6800d6");
    ("ocean/undo-sync/top", "bee92bbd9c703f9e77127e9e975ef0c5");
    ("ocean/redo-nowb/metrics", "870506409607e82757eac078ee6800d6");
    ("ocean/redo-nowb/top", "07bcb6d6ae68dcadf6304822b074f0e8");
    ("ocean/volatile/metrics", "870506409607e82757eac078ee6800d6");
    ("ocean/volatile/top", "675d9da202c3bed482acc30dbb1182df");
    ("gen/capri/metrics", "972df773c25bd4f1008b2fa32e5ae57b");
    ("gen/capri/top", "55fbff01b9ab080315dd85d4fe35e50a");
    ("gen/naive-sync/metrics", "972df773c25bd4f1008b2fa32e5ae57b");
    ("gen/naive-sync/top", "722079322ca7ab3cc6cf658729f3938a");
    ("gen/undo-sync/metrics", "972df773c25bd4f1008b2fa32e5ae57b");
    ("gen/undo-sync/top", "722079322ca7ab3cc6cf658729f3938a");
    ("gen/redo-nowb/metrics", "972df773c25bd4f1008b2fa32e5ae57b");
    ("gen/redo-nowb/top", "55fbff01b9ab080315dd85d4fe35e50a");
    ("gen/volatile/metrics", "972df773c25bd4f1008b2fa32e5ae57b");
    ("gen/volatile/top", "c21caa12451aa3243e829e2fdee02f55") ]

let test_profiles () =
  let radix = W.Suite.by_name ~scale:2 "radix" in
  let ocean = W.Splash3.ocean ~threads:4 ~scale:6 () in
  let gen_program, gen_threads =
    W.Gen.lower (W.Gen.generate ~cores:2 ~array_words:64 22)
  in
  let gen_options = Options.with_threshold 16 Options.default in
  Alcotest.(check bool) "gen compiles recovery blocks" true
    ((Pipeline.compile gen_options gen_program).Compiled.prune_report
       .Comp.Prune.recovery_blocks > 0);
  let programs =
    [ ( "radix", Options.with_threshold 64 Options.default,
        radix.W.Kernel.program, radix.W.Kernel.threads );
      ("ocean", Options.default, ocean.W.Kernel.program, ocean.W.Kernel.threads);
      ("gen", gen_options, gen_program, gen_threads) ]
  in
  let text s = Digest.to_hex (Digest.string s) in
  check_all ~what:"profiles"
    (List.concat_map
       (fun (name, options, program, threads) ->
         List.concat_map
           (fun focus ->
             let p = Profile.run ~focus ~options ~program ~threads () in
             List.map
               (fun (lens, got) ->
                 let key =
                   Printf.sprintf "%s/%s/%s" name (Persist.mode_name focus) lens
                 in
                 ( key,
                   Option.value ~default:"" (List.assoc_opt key profile_digests),
                   text got ))
               [ ("metrics", Profile.metrics_json p);
                 ("top", Profile.render_top p ~n:max_int) ])
           Persist.all_modes)
       programs);
  Alcotest.(check int) "3 programs x 5 focus modes x 2 lenses" 30
    (List.length profile_digests)

let suite =
  [
    Alcotest.test_case "19 kernels x fig9 configs" `Quick test_kernels;
    Alcotest.test_case "kv-hot store" `Quick test_kv_store;
    Alcotest.test_case "19 kernels: runs in all modes, crash + resume" `Quick
      test_kernel_runs;
    Alcotest.test_case "kv-hot store: runs, crash-free and 2 crashes" `Quick
      test_store_runs;
    Alcotest.test_case "served stores: every reporting lens" `Quick
      test_served_views;
    Alcotest.test_case "multi-crash drives: kernels and a journaled run"
      `Quick test_crash_drives;
    Alcotest.test_case "restarts: naive-sync and redo-nowb drives, a preloaded store"
      `Quick test_restarts;
    Alcotest.test_case "profiles: 3 programs x 5 focus modes" `Quick
      test_profiles;
    Alcotest.test_case "19 kernels x fig9 configs at fig8's other thresholds"
      `Quick test_fig8_thresholds;
    Alcotest.test_case "gen seeds 0-199 x fig9 configs x 3 thresholds" `Quick
      test_gen_programs;
  ]
