(* The repository benchmark.

     bench.exe --workload fig8|kv-hot|kv-large|crash-fuzz --seed N
               --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics: the workload is set up
   several times (setup_s is the median CPU time), then its fixed
   simulated work is repeated until S seconds have passed (at least
   three times). cpu_s sums each piece of a repetition at its fastest
   (see [fastest]); the other host metrics are medians over the
   repetitions. Every repetition checks its outputs and must reproduce
   the first one's simulated counters exactly.

   --trace 1 is the separate traced run: pairs of one untraced and one
   traced iteration (set-up + repetition) until S seconds have passed.
   Spans around each layer call give the per-layer host times, the
   results and the Obs registry give the per-layer counts, and the
   difference between the traced and untraced repetitions is the
   tracing overhead.

   Human-readable lines go to stdout; the last line is one JSON object
   {"correct", "attempted", "failed", "metrics"}. The exit code is
   non-zero when any output check, determinism check or conservation
   check failed. See README.md for the metric definitions. *)

let usage =
  "usage: bench.exe --workload fig8|kv-hot|kv-large|crash-fuzz [--seed N] \
   [--seconds S] [--trace 0|1]"

let die code msg =
  prerr_endline msg;
  exit code

let seconds_of ns = Int64.to_float ns /. 1e9

let timed f =
  let t0 = Span.now () in
  let r = f () in
  (r, seconds_of (Int64.sub (Span.now ()) t0))

(* [f ()] with the process CPU time it took and its wall time. On a
   virtual machine whose CPUs are shared with other guests, the kernel
   accounts the time the hypervisor gives to them as steal time, not as
   the process's; CPU time leaves it out where wall time counts it. *)
let cpu_timed f =
  let c0 = Sys.time () in
  let r, wall = timed f in
  (r, Sys.time () -. c0, wall)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Outcome of all repetitions of one invocation. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable first_digest : int list option;
}

let tally () = { attempted = 0; failed = 0; problems = []; first_digest = None }

let problem t msg =
  t.failed <- t.failed + 1;
  t.problems <- t.problems @ [ msg ]

(* Fold one repetition in: its checked outputs, and its simulated
   counters against the first repetition's. A deterministic simulator
   must repeat exactly. *)
let absorb t (r : Workload.rep) =
  t.attempted <- t.attempted + r.Workload.attempted;
  t.failed <- t.failed + r.Workload.failed;
  t.problems <- t.problems @ r.Workload.problems;
  match t.first_digest with
  | None -> t.first_digest <- Some r.Workload.digest
  | Some d ->
    if d <> r.Workload.digest then
      problem t "simulated counters differ between repetitions"

let line name value unit note =
  Printf.printf "%-28s %16.6f %-10s %s\n" name value unit note

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result t metrics =
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) t.problems;
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.failed = 0) (max 1 t.attempted) t.failed (String.concat ", " fields);
  flush stdout;
  if t.failed > 0 then exit 1

let print_sim (r : Workload.rep) =
  List.iter (fun (name, unit, v) -> line name v unit "simulated") r.Workload.sim;
  if List.exists (fun (n, _, _) -> n = "overhead_gmean") r.Workload.sim then
    print_endline
      "model: overhead_gmean and the per-suite geomeans are compared with \
       the paper's Figure 8 above; every other simulated number is \
       unvalidated (no reference measurement exists)"
  else if r.Workload.sim <> [] then
    print_endline
      "model: unvalidated; no reference measurement exists for these \
       simulated numbers"

(* Set-up is repeated at least [min_setups] times and until
   [setup_budget_s] of it has been timed, so a set-up of a millisecond is
   a median of many. *)
let min_setups = 7
let max_setups = 200
let setup_budget_s = 1.0
let min_reps = 3

(* A shared host slows the same repetition by up to half again, in
   stretches from a fraction of a second to minutes, and a median over a
   run can sit wholly inside one. Interference only ever adds time, so
   the fastest run of a piece of work is the steadiest estimate of its
   cost, and the shorter the piece, the likelier one of its runs falls
   in a quiet moment. A repetition is cut into the pieces its workload
   names (fig8: a kernel's volatile runs, or one threshold's four
   compiles and runs; kv-*: a store; crash-fuzz: a trial) plus the rest;
   the result is the sum over the pieces of each one's fastest CPU time
   across the repetitions. *)
let fastest reps =
  let pieces ((r : Workload.rep), cpu, _, _) =
    (cpu -. List.fold_left ( +. ) 0. r.Workload.laps) :: r.Workload.laps
  in
  match List.map pieces reps with
  | [] -> 0.
  | first :: _ as all ->
    List.fold_left ( +. ) 0.
      (List.mapi
         (fun i _ -> List.fold_left (fun m p -> Float.min m (List.nth p i)) infinity all)
         first)

(* ------------------------------------------------------------------ *)
(* --trace 0                                                          *)
(* ------------------------------------------------------------------ *)

let untraced (Workload.T w) ~seed ~seconds =
  let t = tally () in
  let repeat st =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let r, cpu, wall = cpu_timed (fun () -> w.rep None st) in
    absorb t r;
    (r, cpu, wall, Gc.minor_words () -. w0)
  in
  (* One set-up and one repetition first, in the fresh process: the heap
     peak after them is a deterministic function of the build. *)
  let st, first_setup, _ = cpu_timed (fun () -> w.setup None ~seed) in
  let first = repeat st in
  let peak = peak_heap_mb () in
  let rec set_up n spent acc st =
    if n >= min_setups && (spent >= setup_budget_s || n >= max_setups) then
      (acc, st)
    else begin
      Gc.full_major ();
      let st', dt, _ = cpu_timed (fun () -> w.setup None ~seed) in
      set_up (n + 1) (spent +. dt) (dt :: acc) st'
    end
  in
  let setups, st = set_up 1 first_setup [ first_setup ] st in
  let deadline = Int64.add (Span.now ()) (Int64.of_float (seconds *. 1e9)) in
  let rec loop n acc =
    if n >= min_reps && Span.now () >= deadline then List.rev acc
    else loop (n + 1) (repeat st :: acc)
  in
  let reps = loop 1 [ first ] in
  let first, _, _, _ = first in
  let cpu = fastest reps in
  let cpu_median = median (List.map (fun (_, c, _, _) -> c) reps) in
  let wall = median (List.map (fun (_, _, dt, _) -> dt) reps) in
  let words = median (List.map (fun (_, _, _, w) -> w) reps) in
  let setup = median setups in
  Printf.printf "workload %s  seed %d  trace 0  %d repetitions  %d set-ups\n"
    w.name seed (List.length reps) (List.length setups);
  line "cpu_s" cpu "s"
    (Printf.sprintf "host CPU time of one repetition, each of its %d pieces at its fastest of %d"
       (1 + List.length first.Workload.laps) (List.length reps));
  line "cpu_s.median" cpu_median "s"
    (Printf.sprintf "host CPU time of one repetition (median of %d)" (List.length reps));
  line "wall_s" wall "s"
    (Printf.sprintf "host wall time of one repetition (median of %d)" (List.length reps));
  (* the highest percentile with at least ten repetitions beyond it *)
  let n = List.length reps in
  if n >= 20 then begin
    let i = n - 11 in
    let sorted = List.sort compare (List.map (fun (_, c, _, _) -> c) reps) in
    line
      (Printf.sprintf "cpu_s.p%d" (100 * (i + 1) / n))
      (List.nth sorted i) "s" "10 repetitions above it"
  end;
  line "setup_s" setup "s" "host CPU time of one set-up (median)";
  if first.Workload.instrs > 0 then
    line "sim_mips" (float_of_int first.Workload.instrs /. cpu /. 1e6)
      "M instr/s"
      (Printf.sprintf "%d simulated instructions per repetition" first.Workload.instrs);
  line "alloc_mwords" (words /. 1e6) "M words" "minor-heap words of one repetition";
  line "peak_heap_mb" peak "MB" "Gc top_heap_words after the first set-up and repetition";
  line "error_rate"
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    "ratio"
    (Printf.sprintf "%d failed of %d checked" t.failed t.attempted);
  print_sim first;
  print_result t
    [
      ("cpu_s", "s", cpu);
      ("setup_s", "s", setup);
      ("alloc_mwords", "Mwords", words /. 1e6);
      ("peak_heap_mb", "MB", peak);
    ]

(* ------------------------------------------------------------------ *)
(* --trace 1                                                          *)
(* ------------------------------------------------------------------ *)

type view = {
  setup : Span.summary;
  run : Span.summary;
  counts : (string * float) list;
  rep : Workload.rep;
}

let time_of v k = Span.self_s v.setup k +. Span.self_s v.run k
let count v k = Option.value ~default:0. (List.assoc_opt k v.counts)
let ratio a b = if b = 0. then 0. else a /. b

(* The span that ran the simulated instructions: Executor.run where it
   is opened up, Server.run where it is not. *)
let sim_span v =
  if time_of v "executor.run" > 0. then "executor.run" else "server.run"

let sim_of v name =
  match List.find_opt (fun (n, _, _) -> n = name) v.rep.Workload.sim with
  | Some (_, _, x) -> x
  | None -> 0.

let pipeline_words v =
  List.fold_left
    (fun acc (k, w) ->
      if String.length k > 9 && String.sub k 0 9 = "pipeline." then acc +. w else acc)
    0.
    (v.setup.Span.self_words @ v.run.Span.self_words)

let per_layer =
  let s k = ("s", fun v -> time_of v k) in
  let c k = ("count", fun v -> count v k) in
  [
    ("suite.all_s", s "suite.all");
    ("client.generate_s", s "client.generate");
    ("client.requests", c "client.requests");
    ("kvstore.build_s", s "kvstore.build");
    ("kvstore.preload_keys", c "kvstore.preload_keys");
    ("kvstore.static_instrs", c "kvstore.static_instrs");
    ("pipeline.copy_s", s "pipeline.copy");
    ("pipeline.unroll_s", s "pipeline.unroll");
    ("pipeline.form_s", s "pipeline.form");
    ("pipeline.ckpt_s", s "pipeline.ckpt");
    ("pipeline.prune_s", s "pipeline.prune");
    ("pipeline.licm_s", s "pipeline.licm");
    ("pipeline.validate_s", s "pipeline.validate");
    ("pipeline.compiles", c "pipeline.compiles");
    ("pipeline.mwords", ("Mwords", fun v -> pipeline_words v /. 1e6));
    ("pipeline.regions", c "pipeline.regions");
    ("pipeline.loops_unrolled", c "pipeline.loops_unrolled");
    ("pipeline.ckpts_inserted", c "pipeline.ckpts_inserted");
    ("pipeline.ckpts_pruned", c "pipeline.ckpts_pruned");
    ("pipeline.ckpts_hoisted", c "pipeline.ckpts_hoisted");
    ("pipeline.recovery_blocks", c "pipeline.recovery_blocks");
    ("executor.start_s", s "executor.start");
    ("executor.sessions", c "executor.sessions");
    ("executor.run_s", s "executor.run");
    ("executor.instrs", ("count", fun v -> float_of_int v.rep.Workload.instrs));
    ( "executor.ns_per_instr",
      ( "ns",
        fun v -> ratio (time_of v (sim_span v) *. 1e9) (float_of_int v.rep.Workload.instrs) ) );
    ( "executor.words_per_instr",
      ( "words",
        fun v ->
          ratio
            (Span.words v.run (sim_span v))
            (float_of_int v.rep.Workload.instrs) ) );
    ("executor.cycles", c "executor.cycles");
    ("executor.boundaries", c "executor.boundaries");
    ("executor.ckpt_stores", c "executor.ckpt_stores");
    ("executor.stale_reads", c "executor.stale_reads");
    ("persist.entries_created", c "persist.entries_created");
    ( "persist.merge_ratio",
      ( "ratio",
        fun v ->
          ratio
            (count v "persist.entries_merged")
            (count v "persist.entries_created" +. count v "persist.entries_merged") ) );
    ("persist.commits", c "persist.commits");
    ("persist.ckpt_flushes", c "persist.ckpt_flushes");
    ("persist.store_stall_cycles", c "persist.store_stall_cycles");
    ("persist.boundary_stall_cycles", c "persist.boundary_stall_cycles");
    ("persist.nvm_writes_wb", c "persist.nvm_writes_wb");
    ("persist.nvm_writes_redo", c "persist.nvm_writes_redo");
    ("persist.nvm_writes_slot", c "persist.nvm_writes_slot");
    ("persist.redo_skipped_stale", c "persist.redo_skipped_stale");
    ("persist.compactions", c "persist.compactions");
    ("hierarchy.l1_hits", c "hierarchy.l1_hits");
    ("hierarchy.l2_hits", c "hierarchy.l2_hits");
    ("hierarchy.dram_hits", c "hierarchy.dram_hits");
    ("hierarchy.nvm_accesses", c "hierarchy.nvm_accesses");
    ("hierarchy.writebacks", c "hierarchy.writebacks");
    ( "hierarchy.l1_hit_rate",
      ( "ratio",
        fun v ->
          let l1 = count v "hierarchy.l1_hits" in
          ratio l1
            (l1 +. count v "hierarchy.l2_hits" +. count v "hierarchy.dram_hits"
           +. count v "hierarchy.nvm_accesses") ) );
    ("server.run_s", s "server.run");
    ("server.segments", c "server.segments");
    ("recovery.crashes", c "recovery.crashes");
    ("recovery.blocks", c "recovery.blocks");
    ("recovery.replayed", c "recovery.replayed");
    ("recovery.journal_tail", c "recovery.journal_tail");
    ("recovery.cycles", c "recovery.cycles");
    ("sla.replay_s", s "sla.replay");
    ("sla.check_s", s "sla.check");
    ("sla.images", c "sla.images");
    ("sla.stats_s", s "sla.stats");
    ("fuzz.trial_s", s "fuzz.trial");
    ("fuzz.trials", c "fuzz.trials");
    ("fuzz.schedules", c "fuzz.schedules");
    ("fuzz.checks", c "fuzz.checks");
    ("fuzz.failures", c "fuzz.failures");
    ("model.overhead_gmean", ("ratio", fun v -> sim_of v "overhead_gmean"));
    ("model.paper_error_pct", ("%", fun v -> sim_of v "fig8.paper_error_pct"));
    ("model.nvm_writes_per_kinstr", ("writes", fun v -> sim_of v "nvm_writes_per_kinstr"));
    ("model.tput_ops_per_kcyc", ("ops/kcycle", fun v -> sim_of v "tput_ops_per_kcyc"));
    ("model.p50_cyc", ("cycles", fun v -> sim_of v "p50_cyc"));
    ("model.p99_cyc", ("cycles", fun v -> sim_of v "p99_cyc"));
    ("model.avail_pct", ("%", fun v -> sim_of v "avail_pct"));
    ("model.recovery_cyc", ("cycles", fun v -> sim_of v "recovery_cyc"));
  ]

let traced (Workload.T w) ~seed ~seconds =
  let t = tally () in
  (* the opened-up facades must compute what the facades compute *)
  List.iter (problem t) (w.verify ~seed (w.setup None ~seed));
  let deadline = Int64.add (Span.now ()) (Int64.of_float (seconds *. 1e9)) in
  let rec loop n acc =
    if n >= 2 && Span.now () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      let st = w.setup None ~seed in
      Gc.full_major ();
      let r, plain = timed (fun () -> w.rep None st) in
      absorb t r;
      Gc.full_major ();
      let tr = Span.create () in
      let st = Span.root (Some tr) (fun () -> w.setup (Some tr) ~seed) in
      let setup = Span.analyse tr in
      let r = Span.root (Some tr) (fun () -> w.rep (Some tr) st) in
      let run = Span.analyse tr in
      absorb t r;
      List.iter (problem t) (setup.Span.errors @ run.Span.errors);
      let a = Workload.acc () in
      w.setup_counts a st;
      List.iter (fun (k, x) -> Workload.bump a k x) r.Workload.counts;
      let counts = List.of_seq (Hashtbl.to_seq a.Workload.counts) in
      loop (n + 1) (({ setup; run; counts; rep = r }, plain) :: acc)
    end
  in
  let iters = loop 0 [] in
  let views = List.map fst iters in
  let plain = median (List.map snd iters) in
  let traced_wall = median (List.map (fun v -> seconds_of v.run.Span.wall_ns) views) in
  let other = median (List.map (fun v -> Span.layer_s v.setup "other" +. Span.layer_s v.run "other") views) in
  let metrics =
    List.map
      (fun (name, (unit, f)) -> (name, unit, median (List.map f views)))
      per_layer
    @ [
        ("trace.wall_s", "s", traced_wall);
        ("trace.untraced_wall_s", "s", plain);
        ("trace.overhead_s", "s", traced_wall -. plain);
        ("trace.overhead_pct", "%", 100. *. ratio (traced_wall -. plain) plain);
        ("trace.other_s", "s", other);
      ]
  in
  Printf.printf "workload %s  seed %d  trace 1  %d traced + %d untraced iterations\n"
    w.name seed (List.length views) (List.length views);
  List.iter (fun (name, unit, v) -> line name v unit "") metrics;
  (* the conservation law, printed: layers' self times + other = wall *)
  let v = List.hd views in
  List.iter
    (fun (label, (sum : Span.summary)) ->
      Printf.printf "conservation (%s): %s = %.6f s (root %.6f s)\n" label
        (String.concat " + "
           (List.map (fun (l, ns) -> Printf.sprintf "%s %.6f" l (seconds_of ns)) sum.Span.layer_ns))
        (seconds_of (List.fold_left (fun a (_, ns) -> Int64.add a ns) 0L sum.Span.layer_ns))
        (seconds_of sum.Span.wall_ns))
    [ ("set-up", v.setup); ("repetition", v.run) ];
  if count v "registry_checks" > 0. then
    Printf.printf
      "conservation (registry): persist.* and hierarchy.* of %.0f result \
       records equal the Obs registry's persist_* and cache_* cells\n"
      (count v "registry_checks");
  print_result t metrics

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 10. in
  let trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  fig8, kv-hot, kv-large or crash-fuzz");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run (0) or traced run (1)");
    ]
  in
  Arg.parse spec (fun a -> die 2 ("unexpected argument " ^ a ^ "\n" ^ usage)) usage;
  (* The library reads these at start-up; a benchmark run must measure
     the default engine at one job, so refuse rather than override. *)
  List.iter
    (fun var ->
      if Sys.getenv_opt var <> None then
        die 2 (Printf.sprintf "refusing to run: %s is set; unset it" var))
    [ "CAPRI_ENGINE"; "CAPRI_JOBS" ];
  if !trace <> 0 && !trace <> 1 then die 2 usage;
  if !seed < 0 then die 2 "--seed must be non-negative";
  match Workload.find !workload with
  | None -> die 2 (Printf.sprintf "unknown workload %S\n%s" !workload usage)
  | Some w ->
    if !trace = 0 then untraced w ~seed:!seed ~seconds:!seconds
    else traced w ~seed:!seed ~seconds:!seconds
