(* Sensitivity sweeps over the structural axes Section 6.3 blames for
   benchmark variance: store density, short-loop length and call
   frequency. Each table reports the normalized WSP overhead (threshold
   256, all optimizations, conflict fence off to match the paper's
   hardware). *)

open Capri
module W = Capri_workloads

let sweep h ~title kernels =
  print_endline title;
  ignore
    (Runner.kernel_table h ~header:"kernel"
       ~columns:[ ("overhead", 2); ("instrs/region", 1) ]
       ~footer:Runner.No_footer
       (fun k ->
         let m = Runner.measure h ~options:Options.default k in
         [ Runner.normalized m; Runner.instrs_per_region m.Runner.result ])
       kernels);
  print_newline ()

let all h () =
  print_endline
    "== Sensitivity: the structural axes behind Figures 8-11 (Section 6.3)";
  sweep h ~title:"store density (stores per 100 instructions of work):"
    (List.map
       (fun percent -> W.Micro.store_density ~percent ~n:600)
       [ 5; 15; 30; 60; 90 ]);
  sweep h ~title:"short-loop mean length (speculative unrolling's target):"
    (List.map (fun mean -> W.Micro.loop_length ~mean ~outer:150)
       [ 2; 4; 8; 16; 32 ]);
  sweep h ~title:"call frequency (calls force region boundaries):"
    (List.map (fun period -> W.Micro.call_frequency ~period ~n:500)
       [ 50; 20; 10; 5; 2 ])
