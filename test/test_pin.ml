(* Compiled output pinned byte for byte. Each case compiles a fixed
   program and compares one MD5 over its full compiled form — the
   program text, one row per region, the recovery table and the four
   pass reports — against a recorded constant. A compiler change meant
   to preserve output must keep every constant; one meant to change it
   re-records them and says why. A failure names every kernel and
   configuration whose output moved. *)

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

let check_all cases =
  let mismatches =
    List.filter_map
      (fun (name, expected, got) ->
        if String.equal got expected then None
        else Some (Printf.sprintf "%s: expected %S, got %S" name expected got))
      cases
  in
  if mismatches <> [] then
    Alcotest.failf "compiled output differs:\n%s"
      (String.concat "\n" mismatches)

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

let suite =
  [
    Alcotest.test_case "19 kernels x fig9 configs" `Quick test_kernels;
    Alcotest.test_case "kv-hot store" `Quick test_kv_store;
  ]
