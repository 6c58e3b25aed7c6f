(* The observability layer: metrics registry semantics (interning,
   determinism, merge), tracer well-formedness, profiler joins, and the
   NVM line-write accounting invariant under fuzz-generated programs in
   every persistence mode. *)

open Capri
open Helpers
module Metrics = Capri_obs.Metrics
module Tracer = Capri_obs.Tracer
module Profiler = Capri_obs.Profiler
module Series = Capri_obs.Series
module Obs = Capri_obs.Obs
module Gen = Capri_workloads.Gen

(* ---------------- metrics registry ---------------- *)

let test_metrics_interning () =
  let m = Metrics.create () in
  let a = Metrics.counter m "x" ~labels:[ ("k", "v"); ("a", "b") ] in
  (* same series regardless of label order *)
  let b = Metrics.counter m "x" ~labels:[ ("a", "b"); ("k", "v") ] in
  Metrics.Counter.inc a;
  Metrics.Counter.add b 2;
  Alcotest.(check int) "shared cell" 3 (Metrics.Counter.value a);
  let c = Metrics.counter m "x" in
  Alcotest.(check int) "different labels, different cell" 0
    (Metrics.Counter.value c);
  Alcotest.check_raises "type clash"
    (Invalid_argument "Metrics.gauge: x is not a gauge") (fun () ->
      ignore (Metrics.gauge m "x"))

let test_metrics_null_invisible () =
  let g = Metrics.gauge Metrics.null "g" in
  Metrics.Gauge.set g 7;
  Alcotest.(check int) "cell still counts" 7 (Metrics.Gauge.value g);
  Alcotest.(check bool) "null disabled" false (Metrics.enabled Metrics.null);
  (* a second ask returns a fresh cell — nothing interned *)
  Alcotest.(check int) "not interned" 0
    (Metrics.Gauge.value (Metrics.gauge Metrics.null "g"))

let test_metrics_json_deterministic () =
  let build order =
    let m = Metrics.create () in
    List.iter
      (fun (name, labels, v) ->
        Metrics.Counter.add (Metrics.counter m name ~labels) v)
      order;
    let h = Metrics.log2_histogram m "h" ~buckets:6 in
    Metrics.Histogram.observe h 3;
    Metrics.Histogram.observe h 17;
    Metrics.to_json m
  in
  let rows =
    [ ("b", [ ("mode", "capri") ], 1); ("a", [], 2);
      ("b", [ ("mode", "volatile") ], 3) ]
  in
  Alcotest.(check string) "order independent" (build rows)
    (build (List.rev rows));
  Alcotest.(check string) "empty when disabled" (Metrics.to_json Metrics.null)
    (Metrics.to_json Metrics.null)

let test_metrics_merge_commutes () =
  let mk vs =
    let m = Metrics.create () in
    List.iter
      (fun (name, v) -> Metrics.Counter.add (Metrics.counter m name) v)
      vs;
    let h = Metrics.log2_histogram m "h" ~buckets:6 in
    List.iter (fun (_, v) -> Metrics.Histogram.observe h v) vs;
    m
  in
  let a () = mk [ ("x", 1); ("y", 2) ] in
  let b () = mk [ ("y", 5); ("z", 3) ] in
  let ab = Metrics.create () in
  Metrics.merge_into ~dst:ab (a ());
  Metrics.merge_into ~dst:ab (b ());
  let ba = Metrics.create () in
  Metrics.merge_into ~dst:ba (b ());
  Metrics.merge_into ~dst:ba (a ());
  Alcotest.(check string) "commutative" (Metrics.to_json ab)
    (Metrics.to_json ba)

(* ---------------- tracer ---------------- *)

let test_tracer_validate () =
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"outer" ~ts:0;
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"inner" ~ts:2;
  Tracer.instant tr ~track:Tracer.Proxy ~name:"commit" ~ts:1;
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:5;
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:9;
  (match Tracer.validate tr with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "valid trace rejected: %s" msg);
  let bad = Tracer.create () in
  Tracer.end_span bad ~track:(Tracer.Core 0) ~ts:1;
  Alcotest.(check bool) "unmatched E" true
    (Result.is_error (Tracer.validate bad));
  let open_b = Tracer.create () in
  Tracer.begin_span open_b ~track:(Tracer.Core 1) ~name:"x" ~ts:0;
  Alcotest.(check bool) "unclosed B" true
    (Result.is_error (Tracer.validate open_b));
  let backwards = Tracer.create () in
  Tracer.begin_span backwards ~track:(Tracer.Core 0) ~name:"x" ~ts:5;
  Tracer.end_span backwards ~track:(Tracer.Core 0) ~ts:3;
  Alcotest.(check bool) "non-monotone" true
    (Result.is_error (Tracer.validate backwards));
  (* null tracer records nothing *)
  Tracer.begin_span Tracer.null ~track:(Tracer.Core 0) ~name:"x" ~ts:0;
  Alcotest.(check int) "null drops" 0 (Tracer.count Tracer.null)

let test_tracer_chrome_json_shape () =
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"r\"1" ~ts:0
    ~args:[ ("k", "v") ];
  Tracer.instant tr ~track:Tracer.Proxy ~name:"commit" ~ts:3;
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:7;
  let json = Tracer.to_chrome_json tr in
  let count_char c = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 json in
  Alcotest.(check int) "balanced braces" (count_char '{') (count_char '}');
  Alcotest.(check int) "balanced brackets" (count_char '[') (count_char ']');
  let contains needle =
    let n = String.length json and m = String.length needle in
    let rec go i = i + m <= n && (String.sub json i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "names threads" true (contains "thread_name");
  Alcotest.(check bool) "escapes names" true (contains "r\\\"1");
  Alcotest.(check bool) "instant scope" true (contains "\"s\":\"t\"")

let test_tracer_origin_stitching () =
  (* Crash segments restart thread clocks at zero; the origin stitches
     them into one monotone timeline, and close_open balances the spans
     a crash interrupted. *)
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"r0" ~ts:0;
  Tracer.begin_span tr ~track:(Tracer.Core 1) ~name:"r1" ~ts:4;
  Tracer.end_span tr ~track:(Tracer.Core 1) ~ts:9;
  (* crash at cycle 6: core 0's span is dangling, core 1's track has
     already advanced to 9 — the synthetic E must not go backwards *)
  Tracer.close_open tr ~ts:6;
  Alcotest.(check int) "max_ts tracks span events" 9 (Tracer.max_ts tr);
  (match Tracer.validate tr with
   | Ok () -> ()
   | Error m -> Alcotest.failf "crash-closed trace rejected: %s" m);
  (* resume: new segment restarts at ts 0, origin jumps past everything *)
  Tracer.set_origin tr 100;
  Alcotest.(check int) "origin set" 100 (Tracer.origin tr);
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"r2" ~ts:0;
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:5;
  (match Tracer.validate tr with
   | Ok () -> ()
   | Error m -> Alcotest.failf "stitched trace rejected: %s" m);
  Alcotest.(check int) "resumed span lands at origin" 105 (Tracer.max_ts tr);
  (* the close_open E carries its provenance *)
  let closed =
    List.filter
      (fun e ->
        e.Tracer.phase = Tracer.E
        && List.mem_assoc "closed_by" e.Tracer.args)
      (Tracer.events tr)
  in
  Alcotest.(check int) "one synthetic close" 1 (List.length closed)

let test_tracer_request_track () =
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:(Tracer.Request 1) ~name:"read" ~ts:2;
  Tracer.end_span tr ~track:(Tracer.Request 1) ~ts:8;
  (match Tracer.validate tr with
   | Ok () -> ()
   | Error m -> Alcotest.failf "request track rejected: %s" m);
  let json = Tracer.to_chrome_json tr in
  let contains needle =
    let n = String.length json and m = String.length needle in
    let rec go i = i + m <= n && (String.sub json i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "request tid namespace" true (contains "\"tid\":2001");
  Alcotest.(check bool) "request thread name" true (contains "core 1 requests")

(* ---------------- windowed series ---------------- *)

let test_series_windows () =
  let s = Series.create ~width:100 () in
  Alcotest.(check int) "empty" (-1) (Series.last_window s);
  Series.inc s ~ts:0 "ops";
  Series.inc s ~ts:99 "ops";
  Series.inc s ~ts:100 "ops";
  Series.add s ~ts:250 "ops" 3;
  Series.observe s ~ts:50 "lat" 7;
  Series.observe s ~ts:50 "lat" 100;
  Alcotest.(check int) "window 0" 2 (Series.counter s ~window:0 "ops");
  Alcotest.(check int) "window 1" 1 (Series.counter s ~window:1 "ops");
  Alcotest.(check int) "window 2" 3 (Series.counter s ~window:2 "ops");
  Alcotest.(check int) "absent cell" 0 (Series.counter s ~window:5 "ops");
  Alcotest.(check int) "negative ts clamps" 0 (Series.window_of s ~ts:(-7));
  Alcotest.(check int) "last window" 2 (Series.last_window s);
  Alcotest.(check (list string)) "names sorted" [ "lat"; "ops" ]
    (Series.names s);
  Alcotest.(check int) "p50 in bucket bounds" 8
    (Series.quantile s ~window:0 "lat" 50.0);
  Alcotest.(check int) "p99 capped at max" 100
    (Series.quantile s ~window:0 "lat" 99.0);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Series: ops is not a histogram") (fun () ->
      Series.observe s ~ts:0 "ops" 1);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Series.create: width must be positive") (fun () ->
      ignore (Series.create ~width:0 ()))

let test_series_merge_and_json () =
  let mk obs =
    let s = Series.create ~width:10 () in
    List.iter
      (fun (ts, name, v) ->
        if name = "lat" then Series.observe s ~ts name v
        else Series.add s ~ts name v)
      obs;
    s
  in
  let oa = [ (0, "ops", 1); (5, "lat", 3); (25, "ops", 2) ] in
  let ob = [ (3, "ops", 4); (25, "lat", 9); (5, "lat", 40) ] in
  let ab = mk oa in
  Series.merge_into ~dst:ab (mk ob);
  let ba = mk ob in
  Series.merge_into ~dst:ba (mk oa);
  Alcotest.(check string) "merge commutes (json)" (Series.to_json ab)
    (Series.to_json ba);
  let whole = mk (oa @ ob) in
  Alcotest.(check string) "split == whole" (Series.to_json whole)
    (Series.to_json ab);
  Alcotest.(check int) "merged counter" 5 (Series.counter ab ~window:0 "ops");
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Series.merge_into: window widths differ") (fun () ->
      Series.merge_into ~dst:(Series.create ~width:7 ()) ab);
  let json = Series.to_json whole in
  let count_char c =
    String.fold_left (fun n x -> if x = c then n + 1 else n) 0 json
  in
  Alcotest.(check int) "balanced braces" (count_char '{') (count_char '}');
  Alcotest.(check int) "balanced brackets" (count_char '[') (count_char ']')

(* ---------------- profiler ---------------- *)

let test_profiler_joins () =
  let p = Profiler.create () in
  (* commit may arrive before the close (async proxy) or after *)
  Profiler.on_commit p ~core:0 ~seq:0 ~cycle:40 ~nvm_lines:3;
  Profiler.on_region_close p ~core:0 ~seq:0 ~region:"b0" ~stores:5
    ~ckpt_stores:2 ~stall_cycles:1 ~cycle:30;
  Profiler.on_region_close p ~core:0 ~seq:1 ~region:"b0" ~stores:7
    ~ckpt_stores:0 ~stall_cycles:0 ~cycle:60;
  Profiler.on_commit p ~core:0 ~seq:1 ~cycle:70 ~nvm_lines:4;
  Profiler.on_region_close p ~core:1 ~seq:0 ~region:"b1" ~stores:1
    ~ckpt_stores:0 ~stall_cycles:9 ~cycle:10;
  (match Profiler.records p with
   | [ r1; r2; r3 ] ->
     Alcotest.(check (pair int int)) "sorted" (0, 0) (r1.Profiler.core, r1.Profiler.seq);
     Alcotest.(check int) "early commit joined" 40 r1.Profiler.commit_cycle;
     Alcotest.(check int) "late commit joined" 70 r2.Profiler.commit_cycle;
     Alcotest.(check int) "uncommitted" (-1) r3.Profiler.commit_cycle
   | rs -> Alcotest.failf "expected 3 records, got %d" (List.length rs));
  (match Profiler.aggregate p with
   | [ a; b ] ->
     Alcotest.(check string) "agg name" "b0" a.Profiler.name;
     Alcotest.(check int) "execs" 2 a.Profiler.executions;
     Alcotest.(check int) "stores" 12 a.Profiler.total_stores;
     Alcotest.(check int) "commits" 2 a.Profiler.commits;
     Alcotest.(check int) "latency" 20 a.Profiler.total_commit_latency;
     Alcotest.(check int) "nvm" 7 a.Profiler.total_nvm_lines;
     Alcotest.(check int) "b1 uncommitted" 0 b.Profiler.commits
   | aggs -> Alcotest.failf "expected 2 aggregates, got %d" (List.length aggs));
  (* b1 stalls most, so it leads the hot table; truncation footer at n=1 *)
  (match Profiler.hottest p ~n:1 with
   | [ h ] -> Alcotest.(check string) "hottest" "b1" h.Profiler.name
   | _ -> Alcotest.fail "hottest n=1");
  let table = Profiler.render_top p ~n:1 in
  Alcotest.(check bool) "truncation footer" true
    (let needle = "(+1 more regions)" in
     let n = String.length table and m = String.length needle in
     let rec go i = i + m <= n && (String.sub table i m = needle || go (i + 1)) in
     go 0)

(* ---------------- Persist stats invariant (fuzz) ---------------- *)

let check_stats_invariant ctx (p : Persist.stats) =
  let non_negative =
    [ ("entries_created", p.Persist.entries_created);
      ("entries_merged", p.Persist.entries_merged);
      ("commits", p.Persist.commits);
      ("boundaries_elided", p.Persist.boundaries_elided);
      ("ckpt_flushes", p.Persist.ckpt_flushes);
      ("redo_writes", p.Persist.redo_writes);
      ("redo_skipped_invalid", p.Persist.redo_skipped_invalid);
      ("redo_skipped_stale", p.Persist.redo_skipped_stale);
      ("scan_invalidations", p.Persist.scan_invalidations);
      ("window_invalidations", p.Persist.window_invalidations);
      ("store_stall_cycles", p.Persist.store_stall_cycles);
      ("boundary_stall_cycles", p.Persist.boundary_stall_cycles);
      ("nvm_line_writes", p.Persist.nvm_line_writes);
      ("nvm_writes_wb", p.Persist.nvm_writes_wb);
      ("nvm_writes_redo", p.Persist.nvm_writes_redo);
      ("nvm_writes_slot", p.Persist.nvm_writes_slot) ]
  in
  List.iter
    (fun (name, v) ->
      if v < 0 then Alcotest.failf "%s: %s negative (%d)" ctx name v)
    non_negative;
  Alcotest.(check int)
    (ctx ^ ": line writes categorized")
    p.Persist.nvm_line_writes
    (p.Persist.nvm_writes_wb + p.Persist.nvm_writes_redo
   + p.Persist.nvm_writes_slot)

let test_nvm_write_invariant_fuzz () =
  let seeds = [ 1; 7; 23; 42; 77; 1234; 9001 ] in
  List.iter
    (fun seed ->
      let cores = 1 + (seed mod 3) in
      let prog = Gen.generate ~cores seed in
      let program, threads = Gen.lower prog in
      let compiled = compile program in
      List.iter
        (fun mode ->
          let result = run ~mode ~threads compiled in
          check_stats_invariant
            (Printf.sprintf "seed %d %s" seed (Persist.mode_name mode))
            result.Executor.persist_stats)
        Persist.all_modes)
    seeds

let test_invariant_survives_crash_recovery () =
  (* The categorization must also hold for an engine that went through
     crash recovery (redo replay + slot restore). *)
  let program, _ = sum_program ~n:40 () in
  let compiled = compile program in
  let session =
    Executor.start ~program:compiled.Compiled.program
      ~threads:[ Executor.main_thread compiled.Compiled.program ] ()
  in
  match Executor.run ~crash_at_instr:60 session with
  | Executor.Finished _ -> Alcotest.fail "expected crash"
  | Executor.Crashed { image; _ } ->
    ignore (Recovery.apply_recovery_blocks compiled image);
    let threads = [ Executor.main_thread compiled.Compiled.program ] in
    let session2 = Executor.resume ~compiled ~image ~threads () in
    (match Executor.run session2 with
     | Executor.Finished r ->
       check_stats_invariant "post-recovery" r.Executor.persist_stats
     | Executor.Crashed _ -> Alcotest.fail "unexpected second crash")

let suite =
  [
    Alcotest.test_case "metrics interning" `Quick test_metrics_interning;
    Alcotest.test_case "null registry invisible" `Quick
      test_metrics_null_invisible;
    Alcotest.test_case "json determinism" `Quick
      test_metrics_json_deterministic;
    Alcotest.test_case "merge commutes" `Quick test_metrics_merge_commutes;
    Alcotest.test_case "tracer validation" `Quick test_tracer_validate;
    Alcotest.test_case "chrome json shape" `Quick
      test_tracer_chrome_json_shape;
    Alcotest.test_case "tracer origin stitching" `Quick
      test_tracer_origin_stitching;
    Alcotest.test_case "request track" `Quick test_tracer_request_track;
    Alcotest.test_case "series windows" `Quick test_series_windows;
    Alcotest.test_case "series merge + json" `Quick test_series_merge_and_json;
    Alcotest.test_case "profiler joins" `Quick test_profiler_joins;
    Alcotest.test_case "nvm write invariant (fuzz, all modes)" `Quick
      test_nvm_write_invariant_fuzz;
    Alcotest.test_case "invariant after recovery" `Quick
      test_invariant_survives_crash_recovery;
  ]
