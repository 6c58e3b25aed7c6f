(* Crash fuzzing of the serving layer.

   Mirrors Campaign's structure — seed-pure trials spent by the same
   wave loop (Campaign.drive), budget counted in oracle executions,
   reports identical at any job count — but the subject is
   capri.service: each trial plans one small store from a seed-derived
   client workload (optionally weaving in multi-key transactions), then
   drives crash schedules through Server.run in every requested
   recoverable persistence mode, holding Sla.check (the serializability
   + acked-durability oracle) over every crash image and the completed
   run. Crash points mix uniform draws with points aimed at region
   boundaries read back from each mode's crash-free oracle run — on a
   transactional store those boundaries bracket the 2PC phases (after a
   vote record seals, between votes, after the decision record, inside
   a participant's apply loop), so the campaign lands crashes
   mid-protocol by construction. Violations shrink twice:
   the crash schedule through the generic ddmin, then the workload at
   whole-unit granularity (single requests, or entire transactions with
   their markers; surviving tids are renumbered), the oracle re-tested
   on each candidate subset. *)

module Arch = Capri_arch
module Rng = Capri_util.Rng
module Runtime = Capri_runtime
module Svc = Capri_service
module Pipeline = Capri_compiler.Pipeline

type cfg = {
  seed : int;
  budget : int;
  jobs : int;
  modes : Arch.Persist.mode list;
  config : Arch.Config.t;
  max_shards : int;
  max_ops : int;  (* per shard *)
  max_schedules : int;  (* crash schedules per trial and mode *)
  max_txns : int;
  min_txns : int;
  steal : bool;
      (* serve every trial through the work-stealing scheduler (random
         core count / quantum, half the trials multi-tenant), so crash
         points land inside deque critical sections, mid-slice on a
         thief core and between a steal and the stolen slice's first
         ack — every deque lock RMW and release fence heads a region,
         so the boundary-aimed half of the points hits the steal
         windows by construction *)
  shrink : bool;
}

let default_cfg =
  {
    seed = 0;
    budget = 400;
    jobs = 1;
    modes = Arch.Persist.all_modes;
    config = Arch.Config.sim_default;
    max_shards = 2;
    max_ops = 24;
    max_schedules = 6;
    max_txns = 2;
    min_txns = 0;
    steal = false;
    shrink = true;
  }

type failure = {
  trial_seed : int;
  mode : Arch.Persist.mode;
  service : string;  (* shards/mix/ops provenance *)
  reason : string;
  schedule : int list;
  shrunk_schedule : int list;
  kept_requests : int list;  (* surviving workload units, [] = unshrunk *)
  repro : string;
}

type trial = {
  t_seed : int;
  t_schedules : int;
  t_checks : int;
  t_failures : failure list;
}

type report = {
  cfg : cfg;
  trials : int;
  schedules : int;
  checks : int;
  failures : failure list;
}

(* ---------------- seed-derived service shape ---------------- *)

let mixes = [| Svc.Client.A; Svc.Client.B; Svc.Client.C |]

let service_cfg cfg seed =
  let rng = Rng.create (0x5eed + seed) in
  let shards =
    if cfg.steal then
      (* at least two tasks so the deques have something to migrate,
         and more shards than cores on most draws so every core starts
         with a backlog worth stealing from *)
      2 + Rng.int rng (max 1 cfg.max_shards + 1)
    else 1 + Rng.int rng (max 1 cfg.max_shards)
  in
  let ops = 6 + Rng.int rng (max 1 (cfg.max_ops - 5)) in
  let lo = max 0 (min cfg.min_txns cfg.max_txns) in
  let hi = max 0 cfg.max_txns in
  let txns = if hi = 0 then 0 else lo + Rng.int rng (hi - lo + 1) in
  let client =
    {
      Svc.Client.mix = mixes.(Rng.int rng 3);
      key_space = 8 + Rng.int rng 12;
      ops_per_shard = ops;
      skew = float_of_int (Rng.int rng 120) /. 100.0;
      loop = Svc.Client.Closed;
      seed;
      txns;
      txn_items = 1 + Rng.int rng 2;
    }
  in
  let sched, tenants, hot_txns =
    if not cfg.steal then (None, None, 0)
    else begin
      let sched =
        Some
          {
            Svc.Sched.cores = 2 + Rng.int rng 2;
            quantum = 1 + Rng.int rng 4;
            steal = true;
          }
      in
      (* Half the trials serve a multi-tenant cast (skewed tenant 0
         against uniform neighbors — the imbalance that provokes
         steals), occasionally with hot-key 2PC so decision/apply
         records migrate between cores mid-protocol. *)
      if Rng.bool rng then
        ( sched,
          Some
            (Svc.Client.noisy_tenants
               ~tenants:(2 + Rng.int rng 2)
               ~skew:(1.0 +. (float_of_int (Rng.int rng 150) /. 100.0))),
          if Rng.int rng 3 = 0 then 2 + Rng.int rng 2 else 0 )
      else (sched, None, 0)
    end
  in
  (* Half the trials arm journal compaction with a small seed-drawn
     interval, so checkpoint-cursor flips land between (and under) the
     crash points; recovery planning/replay width is drawn too —
     byte-identical by construction at any width, so a divergence
     surfaces as an ordinary oracle violation. *)
  let compact_interval = if Rng.bool rng then 2 + Rng.int rng 14 else 0 in
  let recovery_jobs = 1 + Rng.int rng 2 in
  {
    Svc.Server.default_cfg with
    Svc.Server.shards;
    client;
    batch = 1 + Rng.int rng 6;
    config = { cfg.config with Arch.Config.compact_interval };
    sched;
    tenants;
    hot_txns;
    recovery_jobs;
  }

let service_string (c : Svc.Server.cfg) =
  let sched =
    match c.Svc.Server.sched with
    | None -> ""
    | Some s ->
      Printf.sprintf " cores=%d quantum=%d steal=%b" s.Svc.Sched.cores
        s.Svc.Sched.quantum s.Svc.Sched.steal
  in
  let tenants =
    match c.Svc.Server.tenants with
    | None -> ""
    | Some ts ->
      Printf.sprintf " tenants=%d hot_txns=%d" (Array.length ts)
        c.Svc.Server.hot_txns
  in
  Printf.sprintf
    "shards=%d mix=%s ops=%d keys=%d skew=%.2f batch=%d txns=%d compact=%d \
     rjobs=%d%s%s"
    c.Svc.Server.shards
    (Svc.Client.mix_name c.Svc.Server.client.Svc.Client.mix)
    c.Svc.Server.client.Svc.Client.ops_per_shard
    c.Svc.Server.client.Svc.Client.key_space
    c.Svc.Server.client.Svc.Client.skew c.Svc.Server.batch
    c.Svc.Server.client.Svc.Client.txns
    c.Svc.Server.config.Arch.Config.compact_interval c.Svc.Server.recovery_jobs
    sched tenants

(* The command line that replays trial [seed] alone: every non-default
   flag that shapes the trial. The mode list is one of them — one RNG
   draws the crash points of all modes in list order, so a failure
   found under [--mode undo-sync] replays only under that list. *)
let repro_string cfg seed =
  let txn_flags =
    if
      cfg.max_txns = default_cfg.max_txns
      && cfg.min_txns = default_cfg.min_txns
    then ""
    else Printf.sprintf " --max-txns %d --min-txns %d" cfg.max_txns cfg.min_txns
  in
  let steal_flag = if cfg.steal then " --steal" else "" in
  let recoverable = List.filter Arch.Persist.crash_recoverable in
  let modes = recoverable cfg.modes in
  let mode_flag =
    if modes = recoverable default_cfg.modes then ""
    else
      " --mode " ^ String.concat "," (List.map Arch.Persist.mode_name modes)
  in
  let schedules_flag =
    (* fuzz/main.exe fills an absent --max-schedules from the kernel
       campaign's default for both campaigns *)
    if cfg.max_schedules = Campaign.default_cfg.Campaign.max_schedules then ""
    else Printf.sprintf " --max-schedules %d" cfg.max_schedules
  in
  Printf.sprintf "fuzz/main.exe --service%s --seed %d --budget 1%s%s%s"
    steal_flag seed txn_flags mode_flag schedules_flag

(* ---------------- oracle drive and shrinking ---------------- *)

let serve t schedule =
  (* Each run gets a fresh obs bundle: trace well-formedness across the
     crash schedule is itself an oracle — a dangling span at a crash
     point or a non-monotone stitch across a recovery boundary is
     reported like any other violation. (Fresh because origin stitching
     is per-run state; sharing a tracer across runs would interleave
     timelines.) A clean run returns its outcome and tracer. *)
  let obs = Capri_obs.Obs.create () in
  match Svc.Server.run ~obs ~crash_at:schedule t with
  | outcome -> (
    match Svc.Server.check t outcome with
    | Ok () -> (
      let tracer = obs.Capri_obs.Obs.tracer in
      match Capri_obs.Tracer.validate tracer with
      | Ok () -> Ok (outcome, tracer)
      | Error msg -> Error ("trace invalid: " ^ msg))
    | Error v -> Error (Format.asprintf "%a" Svc.Sla.pp_violation v))
  | exception e -> Error (Printexc.to_string e)

let violates t schedule = Result.is_error (serve t schedule)

(* Shrink units: one per single request (shard-major stream position)
   followed by one per whole transaction. Dropping a txn unit removes
   its markers from every stream and renumbers the surviving tids. *)
type wunit = U_single of int * int | U_txn of int

let workload_units (t : Svc.Server.t) =
  let kv = t.Svc.Server.kv in
  let singles = ref [] in
  Array.iteri
    (fun s reqs ->
      Array.iteri
        (fun i (r : Svc.Wire.request) ->
          if r.op <> Svc.Wire.Txn then singles := U_single (s, i) :: !singles)
        reqs)
    kv.Svc.Kvstore.requests;
  List.rev !singles
  @ List.map
      (fun (tx : Svc.Wire.txn) -> U_txn tx.tid)
      (Array.to_list kv.Svc.Kvstore.txns)

(* Rebuild the service keeping only the units whose indices are in
   [keep]. *)
let restrict_requests (t : Svc.Server.t) units keep =
  let kv = t.Svc.Server.kv in
  let kept = List.filteri (fun i _ -> List.mem i keep) units in
  let keep_single = Hashtbl.create 64 in
  let keep_tid = Hashtbl.create 8 in
  List.iter
    (function
      | U_single (s, i) -> Hashtbl.replace keep_single (s, i) ()
      | U_txn tid -> Hashtbl.replace keep_tid tid ())
    kept;
  let kept_txns =
    List.filter
      (fun (tx : Svc.Wire.txn) -> Hashtbl.mem keep_tid tx.tid)
      (Array.to_list kv.Svc.Kvstore.txns)
  in
  let tid_map = Hashtbl.create 8 in
  List.iteri
    (fun i (tx : Svc.Wire.txn) -> Hashtbl.replace tid_map tx.tid (i + 1))
    kept_txns;
  let txns' =
    Array.of_list
      (List.map
         (fun (tx : Svc.Wire.txn) ->
           { tx with Svc.Wire.tid = Hashtbl.find tid_map tx.tid })
         kept_txns)
  in
  let requests' =
    Array.mapi
      (fun s reqs ->
        let out = ref [] in
        Array.iteri
          (fun i (r : Svc.Wire.request) ->
            if r.Svc.Wire.op = Svc.Wire.Txn then begin
              match Hashtbl.find_opt tid_map r.Svc.Wire.key with
              | Some tid -> out := { r with Svc.Wire.key = tid } :: !out
              | None -> ()
            end
            else if Hashtbl.mem keep_single (s, i) then out := r :: !out)
          reqs;
        Array.of_list (List.rev !out))
      kv.Svc.Kvstore.requests
  in
  let kv' =
    (* keep the scheduler shape: a violation found under stealing must
       shrink under stealing, not silently revert to pinned serving *)
    Svc.Kvstore.build ?sched:kv.Svc.Kvstore.sched ~batch:kv.Svc.Kvstore.batch
      ~txns:txns' ~key_space:kv.Svc.Kvstore.key_space ~requests:requests'
      ~preload:kv.Svc.Kvstore.preload ()
  in
  let compiled =
    Pipeline.compile t.Svc.Server.cfg.Svc.Server.options kv'.Svc.Kvstore.program
  in
  { t with Svc.Server.kv = kv'; compiled }

let shrink_failure t schedule =
  let test s = violates t s in
  let shrunk = Shrink.shrink_schedule ~test schedule in
  let units = workload_units t in
  let total = List.length units in
  let all = List.init total Fun.id in
  let test_keep keep =
    match restrict_requests t units keep with
    | t' -> violates t' shrunk
    | exception _ -> false
  in
  let kept = Shrink.shrink_schedule ~test:test_keep all in
  (shrunk, if List.length kept < total then kept else [])

(* ---------------- crash-point selection ---------------- *)

(* Half the points are uniform over the dynamic instruction count; the
   other half aim at region boundaries from the crash-free oracle run —
   the neighbourhood offsets land just before a boundary commits, on
   it, and into the drain window after it. On a transactional store the
   vote fence, decision fence, spin loops and apply loops all head
   regions, so these are exactly the 2PC phase edges. *)
let phase_offsets = [| -2; -1; 0; 1; 2; 4; 8 |]

let pick_point rng ~total ~boundaries =
  let uniform () = 1 + Rng.int rng (max 2 total - 1) in
  match boundaries with
  | [||] -> uniform ()
  | bs ->
    if Rng.bool rng then uniform ()
    else begin
      let b = bs.(Rng.int rng (Array.length bs)) in
      let p = b + phase_offsets.(Rng.int rng (Array.length phase_offsets)) in
      max 1 (min p (max 1 (total - 1)))
    end

(* ---------------- one trial ---------------- *)

let run_trial cfg k =
  let seed = cfg.seed + k in
  let rng = Rng.create (0xca11 + seed) in
  let checks = ref 0 in
  let schedules_run = ref 0 in
  let failure = ref None in
  (match List.filter Arch.Persist.crash_recoverable cfg.modes with
   | [] -> ()
   | first :: _ as crash_modes -> (
     let scfg = service_cfg cfg seed in
     let fail ~mode ?(schedule = []) ?(shrunk = []) ?(kept = []) reason =
       failure :=
         Some
           {
             trial_seed = seed;
             mode;
             service = service_string scfg;
             reason;
             schedule;
             shrunk_schedule = shrunk;
             kept_requests = kept;
             repro = repro_string cfg seed;
           }
     in
     (* One plan serves every mode: planning reads the mode only in
        admission control, which a closed-loop fuzz client never runs. *)
     match Svc.Server.plan scfg with
     | exception e -> fail ~mode:first ("plan: " ^ Printexc.to_string e)
     | planned ->
       List.iter
         (fun mode ->
           if !failure = None then begin
             let cfg' = { planned.Svc.Server.cfg with Svc.Server.mode } in
             let t = { planned with Svc.Server.cfg = cfg' } in
             (* the crash-free oracle run also yields the crash points'
                range and the boundaries they aim at *)
             incr checks;
             match serve t [] with
             | Error reason ->
               (* a crash-free violation: no schedule to shrink, but the
                  workload still minimizes (e.g. down to the one
                  transaction a broken commit path half-applies) *)
               let _, kept =
                 if cfg.shrink then shrink_failure t [] else ([], [])
               in
               fail ~mode ~kept reason
             | Ok (reference, tracer) ->
               let total =
                 reference.Svc.Server.result.Runtime.Executor.instrs
               in
               let boundaries =
                 Array.of_list (Runtime.Executor.boundary_instrs tracer)
               in
               let schedule () =
                 let crashes = 1 + Rng.int rng 3 in
                 List.init crashes (fun i ->
                     (* entries after the first count instructions in a
                        resumed segment: a small draw there crashes again
                        right inside the recovery-block replay / journal
                        re-serve window of the previous recovery *)
                     if i > 0 && Rng.int rng 3 = 0 then 1 + Rng.int rng 8
                     else pick_point rng ~total ~boundaries)
               in
               for _ = 1 to cfg.max_schedules do
                 if !failure = None then begin
                   let s = schedule () in
                   incr checks;
                   incr schedules_run;
                   match serve t s with
                   | Ok _ -> ()
                   | Error reason ->
                     let shrunk, kept =
                       if cfg.shrink then shrink_failure t s else (s, [])
                     in
                     fail ~mode ~schedule:s ~shrunk ~kept reason
                 end
               done
           end)
         crash_modes));
  {
    t_seed = seed;
    t_schedules = !schedules_run;
    t_checks = !checks;
    t_failures = Option.to_list !failure;
  }

(* ---------------- the campaign loop ---------------- *)

let run cfg =
  let cfg = { cfg with jobs = max 1 cfg.jobs; budget = max 1 cfg.budget } in
  let trials =
    Campaign.drive ~jobs:cfg.jobs ~budget:cfg.budget
      ~cost:(fun t -> t.t_checks)
      (run_trial cfg)
  in
  let sum f = List.fold_left (fun n t -> n + f t) 0 trials in
  {
    cfg;
    trials = List.length trials;
    schedules = sum (fun t -> t.t_schedules);
    checks = sum (fun t -> t.t_checks);
    failures = List.concat_map (fun t -> t.t_failures) trials;
  }

(* ---------------- rendering ---------------- *)

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "service fuzz campaign: seed=%d budget=%d modes=%s txns=%d..%d%s\n\
        trials=%d schedules=%d checks=%d\n"
       r.cfg.seed r.cfg.budget
       (String.concat "," (List.map Arch.Persist.mode_name r.cfg.modes))
       (min r.cfg.min_txns r.cfg.max_txns)
       r.cfg.max_txns
       (if r.cfg.steal then " steal=on" else "")
       r.trials r.schedules r.checks);
  if r.failures = [] then Buffer.add_string buf "failures: none\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "failures: %d\n" (List.length r.failures));
    List.iteri
      (fun i f ->
        Buffer.add_string buf
          (Printf.sprintf
             "failure #%d: serializability/durability, trial seed %d, %s\n"
             (i + 1) f.trial_seed
             (Arch.Persist.mode_name f.mode));
        Buffer.add_string buf (Printf.sprintf "  service:  %s\n" f.service);
        Buffer.add_string buf (Printf.sprintf "  reason:   %s\n" f.reason);
        if f.schedule <> [] then
          Buffer.add_string buf
            (Printf.sprintf "  schedule: [%s] -> shrunk [%s]\n"
               (String.concat "; " (List.map string_of_int f.schedule))
               (String.concat "; " (List.map string_of_int f.shrunk_schedule)));
        if f.kept_requests <> [] then
          Buffer.add_string buf
            (Printf.sprintf "  kept units: %s\n"
               (String.concat ","
                  (List.map string_of_int f.kept_requests)));
        Buffer.add_string buf (Printf.sprintf "  repro:    %s\n" f.repro))
      r.failures
  end;
  Buffer.contents buf
