(* Systematic crash-schedule enumeration.

   A schedule is the list of global dynamic instruction counts handed to
   Verify.run_with_crashes: each element crashes the machine once the
   running session has executed that many instructions, recovery runs,
   and the next element applies to the resumed session.

   Crash points are chosen where the two-phase protocol actually has
   state to lose, not uniformly: the neighbourhood of every region
   boundary (just before the boundary, right on it, just after), the
   proxy-drain window behind each boundary (entries and the commit
   marker still in flight on the proxy path), region interiors, and
   multi-crash schedules — a second crash landing inside the recovery
   replay of the first, including repeated crashes of the same region. *)

module Executor = Capri_runtime.Executor
module Verify = Capri_runtime.Verify
module Obs = Capri_obs.Obs

type info = {
  total : int;  (* dynamic instructions of the crash-free run *)
  boundaries : int list;  (* ascending boundary instruction indices *)
}

let observe ?config ?threads compiled =
  (* a tracer-only bundle: the region spans are all this run is for *)
  let obs = { Obs.null with Obs.tracer = Capri_obs.Tracer.create () } in
  let reference = Verify.reference ?config ~obs ?threads compiled in
  let info =
    {
      total = reference.Executor.instrs;
      boundaries = Executor.boundary_instrs obs.Obs.tracer;
    }
  in
  (reference, info)

(* Offsets behind a boundary probing the drain window: the commit marker
   needs proxy_path_latency cycles to reach the back-end, so crashes a
   few instructions after the boundary catch the region with its commit
   (and trailing data entries) still on the path. *)
let drain_offsets = [ 2; 4; 8 ]

let clamp info at = max 0 (min at (max 0 (info.total - 1)))

let dedup_sorted xs = List.sort_uniq Int.compare xs

(* Evenly thin a list down to at most [n] elements, keeping the
   extremes; deterministic. *)
let thin n xs =
  let len = List.length xs in
  if len <= n then xs
  else if n <= 0 then []
  else if n = 1 then [ List.hd xs ]
  else begin
    let arr = Array.of_list xs in
    let picked = List.init n (fun i -> arr.(i * (len - 1) / (n - 1))) in
    (* indices are non-decreasing; drop adjacent duplicates *)
    let rec uniq = function
      | a :: (b :: _ as rest) -> if a == b then uniq rest else a :: uniq rest
      | xs -> xs
    in
    uniq picked
  end

let single_points info =
  let near_boundaries =
    List.concat_map
      (fun b ->
        List.map (clamp info)
          ([ b - 1; b; b + 1 ] @ List.map (fun o -> b + o) drain_offsets))
      info.boundaries
  in
  let interiors =
    (* midpoint of every region: between consecutive boundaries, plus
       the stretches before the first and after the last boundary *)
    let edges = (0 :: info.boundaries) @ [ info.total ] in
    let rec mids = function
      | a :: (b :: _ as rest) ->
        if b - a > 1 then clamp info ((a + b) / 2) :: mids rest else mids rest
      | _ -> []
    in
    mids edges
  in
  dedup_sorted ((0 :: near_boundaries) @ interiors)

let multi_schedules info singles =
  (* Second (and third) crashes use small counts so they land inside the
     recovery replay of the interrupted region — the crash-during-
     recovery case — plus a same-point double crash re-interrupting the
     identical region every time. *)
  let picks = thin 6 singles in
  List.concat_map
    (fun a ->
      if a = 0 then [ [ 0; 0 ] ]
      else [ [ a; 1 ]; [ a; 3 ]; [ a; a ]; [ a; 1; 1 ] ])
    picks
  |> List.filter (fun s -> List.for_all (fun x -> x <= info.total) s)

let enumerate ?(max_schedules = max_int) info =
  if info.total = 0 then []
  else begin
    (* Budget split: mostly single-crash coverage, a bounded multi-crash
       tail. Thinning keeps the spread across the whole run. *)
    let singles =
      thin (max 1 (max_schedules * 3 / 4)) (single_points info)
    in
    let multis = multi_schedules info singles in
    let multis = thin (max 0 (max_schedules - List.length singles)) multis in
    List.map (fun p -> [ p ]) singles @ multis
  end
