(* bench-smoke: the parallel harness must be a pure scheduling change.
   Run a tiny fig8-style measurement matrix through a 1-domain harness
   and through a 2-domain one (nested fan-out included: measure_best
   spreads its candidates too) and require float-identical rows. The two
   harnesses are alive at once and each simulates its own baselines, so
   the comparison covers the baselines too. Runs as part of
   `dune runtest`, so it is kept deliberately small. *)

open Capri_bench
module W = Capri_workloads

let kernels () =
  List.map
    (fun n -> W.Suite.by_name ~scale:1 n)
    [ "505.mcf_r"; "genome"; "radix" ]

let thresholds = [ 64; 256 ]

let rows h =
  List.map snd
    (Runner.measure_rows h
       (fun k ->
         List.map
           (fun threshold ->
             Runner.normalized (Runner.measure_best h ~threshold k))
           thresholds)
       (kernels ()))

let () =
  let seq_h = Runner.create ~jobs:1 ~metrics:false in
  let par_h = Runner.create ~jobs:2 ~metrics:false in
  Fun.protect ~finally:(fun () ->
      Runner.shutdown seq_h;
      Runner.shutdown par_h)
  @@ fun () ->
  let seq = rows seq_h in
  let par = rows par_h in
  if seq <> par then begin
    prerr_endline "bench-smoke: parallel results differ from sequential:";
    List.iter2
      (fun a b ->
        Printf.eprintf "  seq [%s]  par [%s]\n"
          (String.concat "; " (List.map string_of_float a))
          (String.concat "; " (List.map string_of_float b)))
      seq par;
    exit 1
  end;
  (* Sanity: the matrix is non-trivial and finite. *)
  assert (List.length seq = 3);
  List.iter (List.iter (fun v -> assert (Float.is_finite v && v > 0.0))) seq;
  print_endline "bench-smoke: jobs=2 matches sequential"
