(* One (name, builder) table in Figure 8 order; everything else reads
   it. A sequential kernel ignores [threads]. *)
let table : (string * (?threads:int -> scale:int -> unit -> Kernel.t)) list =
  let seq build ?threads:_ ~scale () = build ~scale in
  [
    ("505.mcf_r", seq Spec.mcf); ("531.deepsjeng_r", seq Spec.deepsjeng);
    ("541.leela_r", seq Spec.leela); ("508.namd_r", seq Spec.namd);
    ("519.lbm_r", seq Spec.lbm);
    ("genome", seq Stamp.genome); ("intruder", seq Stamp.intruder);
    ("labyrinth", seq Stamp.labyrinth); ("ssca2", seq Stamp.ssca2);
    ("vacation", seq Stamp.vacation);
    ("barnes", Splash3.barnes); ("fmm", Splash3.fmm); ("ocean", Splash3.ocean);
    ("radiosity", Splash3.radiosity); ("raytrace", Splash3.raytrace);
    ("volrend", Splash3.volrend); ("water-nsquared", Splash3.water_nsquared);
    ("water-spatial", Splash3.water_spatial); ("radix", Splash3.radix);
  ]

let all ?threads ~scale () =
  List.map (fun (_, build) -> build ?threads ~scale ()) table

let names = List.map fst table
let by_name ?threads ~scale name = (List.assoc name table) ?threads ~scale ()

let of_suite suite ~scale =
  List.filter
    (fun (k : Kernel.t) -> k.Kernel.suite = suite)
    (all ~scale ())

let bench_scale = 12
let test_scale = 3
