(* The persistence engine in isolation: entry creation and merging,
   boundary elision, two-phase commits, crash drain, undo/redo replay,
   and the stale-read machinery. *)

open Capri
module Persist = Capri_arch.Persist

let config =
  { Config.sim_default with Config.cores = 1; front_proxy_entries = 4 }

let mk ?(mode = Persist.Capri) ?(cfg = config) () = Persist.create cfg ~mode

let line_data v = Array.make 8 v

(* Store [to_] over [from] in word 0 of [line] on [core]: the
   architectural memory the engine copies the line from holds [to_]
   after the store. *)
let store_on t ~core ~cycle ~line ~from ~to_ ~version =
  let memory = Memory.create () in
  Memory.write memory (Memory.addr_of_line line) to_;
  Persist.on_store_word t ~core ~cycle ~line ~mask:1 ~word:0 ~value:to_
    ~old:from ~version ~memory

let store t ~cycle ~line ~from ~to_ ~version =
  ignore (store_on t ~core:0 ~cycle ~line ~from ~to_ ~version)

let test_merge_within_region () =
  let t = mk () in
  (* Same cycle: the first entry is still in the front-end buffer. *)
  store t ~cycle:0 ~line:5 ~from:0 ~to_:1 ~version:1;
  store t ~cycle:0 ~line:5 ~from:1 ~to_:2 ~version:2;
  let s = Persist.stats t in
  Alcotest.(check int) "one entry" 1 s.Persist.entries_created;
  Alcotest.(check int) "one merge" 1 s.Persist.entries_merged

let test_no_merge_across_regions () =
  let t = mk () in
  store t ~cycle:0 ~line:5 ~from:0 ~to_:1 ~version:1;
  ignore (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:0 ~row:(-1));
  store t ~cycle:2 ~line:5 ~from:1 ~to_:2 ~version:2;
  let s = Persist.stats t in
  Alcotest.(check int) "two entries" 2 s.Persist.entries_created;
  Alcotest.(check int) "no merges" 0 s.Persist.entries_merged

let test_boundary_elision () =
  let t = mk () in
  (* empty region: elided *)
  ignore (Persist.on_boundary t ~core:0 ~cycle:0 ~boundary:1 ~sp:0 ~row:(-1));
  Alcotest.(check int) "elided" 1 (Persist.stats t).Persist.boundaries_elided;
  (* a region with a checkpoint flush is NOT elided *)
  Persist.on_ckpt t ~core:0 ~slot:3 ~value:99;
  ignore (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:2 ~sp:0 ~row:(-1));
  Alcotest.(check int) "not elided" 1
    (Persist.stats t).Persist.boundaries_elided

let test_commit_reaches_nvm () =
  let t = mk () in
  store t ~cycle:0 ~line:7 ~from:0 ~to_:42 ~version:1;
  ignore (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:0 ~row:(-1));
  (* Give the path time to drain and commit. *)
  Persist.advance t ~cycle:10_000;
  Alcotest.(check int) "redo landed" 42 (Persist.nvm_line t 7).(0)

let test_uncommitted_stays_out () =
  let t = mk () in
  store t ~cycle:0 ~line:7 ~from:0 ~to_:42 ~version:1;
  Persist.advance t ~cycle:10_000;
  (* no boundary: the entry sits in the back-end without a commit marker *)
  Alcotest.(check int) "nvm untouched" 0 (Persist.nvm_line t 7).(0)

let test_crash_redo_committed () =
  let t = mk () in
  store t ~cycle:0 ~line:7 ~from:0 ~to_:42 ~version:1;
  Persist.on_ckpt t ~core:0 ~slot:4 ~value:77;
  ignore
    (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:9
       ~sp:500 ~row:(-1));
  (* Crash immediately: everything is still in flight, but battery-backed
     buffers drain and the committed region replays. *)
  let image = Persist.crash_recover t ~cycle:2 in
  Alcotest.(check int) "redo applied" 42
    (Memory.line_snapshot image.Persist.nvm 7).(0);
  Alcotest.(check int) "slot applied" 77 image.Persist.slots.(0).(4);
  (match image.Persist.resume.(0) with
   | Persist.Resume { boundary; sp } ->
     Alcotest.(check int) "resume boundary" 9 boundary;
     Alcotest.(check int) "resume sp" 500 sp
   | _ -> Alcotest.fail "expected resume record")

let test_crash_undo_interrupted () =
  let t = mk () in
  (* Region A commits line 7 = 10. *)
  store t ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1;
  ignore (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:0 ~row:(-1));
  (* Region B overwrites line 7 = 20 but never commits. *)
  store t ~cycle:2 ~line:7 ~from:10 ~to_:20 ~version:2;
  Persist.on_ckpt t ~core:0 ~slot:4 ~value:123;  (* staged, uncommitted *)
  let image = Persist.crash_recover t ~cycle:3 in
  Alcotest.(check int) "rolled back to region A" 10
    (Memory.line_snapshot image.Persist.nvm 7).(0);
  Alcotest.(check int) "uncommitted ckpt discarded" 0
    image.Persist.slots.(0).(4)

let test_figure7_writeback_race () =
  (* The paper's Figure 7: region 1 commits A=10; region 2 stores A=20;
     the dirty writeback (A=20) beats region 1's phase 2; the redo
     valid-bit is cleared; a crash before region 2 commits must still
     restore A=10 via region 2's undo. *)
  let t = mk () in
  store t ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1;
  ignore (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:0 ~row:(-1));
  store t ~cycle:2 ~line:7 ~from:10 ~to_:20 ~version:2;
  (* cache writeback of the line carrying region 2's data arrives *)
  Persist.on_writeback t ~cycle:3 ~line:7 ~data:(line_data 20) ~version:2;
  Alcotest.(check int) "writeback landed" 20 (Persist.nvm_line t 7).(0);
  let image = Persist.crash_recover t ~cycle:4 in
  Alcotest.(check int) "undo restores region 1's value" 10
    (Memory.line_snapshot image.Persist.nvm 7).(0)

let test_scan_invalidation_saves_bandwidth () =
  let t = mk () in
  store t ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1;
  ignore (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:0 ~row:(-1));
  (* Let the entry reach the back-end, then a NEWER writeback arrives
     before the commit marker is processed... simpler: send writeback
     after the commit already applied; the scan just must not corrupt. *)
  Persist.advance t ~cycle:10_000;
  Persist.on_writeback t ~cycle:10_001 ~line:7 ~data:(line_data 99) ~version:5;
  Alcotest.(check int) "newer writeback wins" 99 (Persist.nvm_line t 7).(0);
  (* An older redo must never overwrite a newer writeback (version
     guard). *)
  store t ~cycle:10_002 ~line:7 ~from:99 ~to_:11 ~version:3 (* stale version *);
  ignore
    (Persist.on_boundary t ~core:0 ~cycle:10_003 ~boundary:2
       ~sp:0 ~row:(-1));
  Persist.advance t ~cycle:20_000;
  Alcotest.(check int) "stale redo skipped" 99 (Persist.nvm_line t 7).(0)

let test_monitor_window () =
  let t = mk () in
  (* Entry created, writeback with same-or-newer version arrives at the
     controller before the entry: the window must invalidate it. *)
  store t ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1;
  Persist.on_writeback t ~cycle:0 ~line:7 ~data:(line_data 10) ~version:1;
  ignore (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:0 ~row:(-1));
  Persist.advance t ~cycle:10_000;
  let s = Persist.stats t in
  Alcotest.(check bool) "window or scan invalidated the entry" true
    (s.Persist.window_invalidations + s.Persist.scan_invalidations >= 1);
  Alcotest.(check int) "content correct" 10 (Persist.nvm_line t 7).(0)

let test_naive_sync_stalls () =
  let t = mk ~mode:Persist.Naive_sync () in
  store t ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1;
  let stall =
    Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:0 ~row:(-1)
  in
  Alcotest.(check bool) "boundary stalls" true (stall > 0);
  Alcotest.(check int) "persisted on return" 10 (Persist.nvm_line t 7).(0)

let test_capri_async () =
  let t = mk () in
  store t ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1;
  let stall =
    Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:0 ~row:(-1)
  in
  Alcotest.(check int) "no stall" 0 stall

let test_front_proxy_backpressure () =
  (* A tiny front-end with a slow path: a dense store burst must stall
     the core (but never deadlock — the back-end can hold the region). *)
  let cfg = { config with Config.front_proxy_entries = 2;
              back_proxy_entries = 64; proxy_path_gap = 16 } in
  let t = mk ~cfg () in
  let total_stall = ref 0 in
  for i = 0 to 7 do
    total_stall :=
      !total_stall
      + store_on t ~core:0 ~cycle:i ~line:(100 + i) ~from:0 ~to_:i
          ~version:1
  done;
  Alcotest.(check bool) "store stalled" true (!total_stall > 0)

let test_region_overflow_detected () =
  (* A region with more distinct lines than the back-end proxy can hold
     violates the compiler's threshold contract; the engine must fail
     loudly rather than lose entries. *)
  let cfg = { config with Config.front_proxy_entries = 2;
              back_proxy_entries = 2 } in
  let t = mk ~cfg () in
  Alcotest.check_raises "deadlock detected"
    (Failure "Persist: stalled with no pending events")
    (fun () ->
      for i = 0 to 7 do
        ignore
          (store_on t ~core:0 ~cycle:i ~line:(100 + i) ~from:0 ~to_:i
             ~version:1)
      done)

let test_multi_core_isolation () =
  let cfg = { config with Config.cores = 2 } in
  let t = mk ~cfg () in
  store t ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1;
  ignore (store_on t ~core:1 ~cycle:0 ~line:9 ~from:0 ~to_:30 ~version:1);
  ignore (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:0 ~row:(-1));
  (* core 1 never commits *)
  let image = Persist.crash_recover t ~cycle:5 in
  Alcotest.(check int) "core 0 redo" 10
    (Memory.line_snapshot image.Persist.nvm 7).(0);
  Alcotest.(check int) "core 1 undone" 0
    (Memory.line_snapshot image.Persist.nvm 9).(0);
  (match image.Persist.resume.(1) with
   | Persist.Never_started -> ()
   | Persist.Resume _ | Persist.Done ->
     Alcotest.fail "core 1 should have no resume record")

let test_halt_commits_in_background () =
  let t = mk () in
  store t ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1;
  let stall = Persist.on_halt t ~core:0 ~cycle:1 ~row:(-1) in
  Alcotest.(check int) "no exit stall in capri mode" 0 stall;
  Persist.advance t ~cycle:100_000;
  Alcotest.(check int) "final region persisted" 10 (Persist.nvm_line t 7).(0);
  let image = Persist.crash_recover t ~cycle:100_001 in
  (match image.Persist.resume.(0) with
   | Persist.Done -> ()
   | Persist.Resume _ | Persist.Never_started ->
     Alcotest.fail "halted core should be Done")

(* Recovery must walk a core's stream in order: the open back region,
   then the in-flight path, then the front queue. Here the interrupted
   region stores line 7 three times and line 8 twice, and each store
   finds the line's previous entry drained out of the front (so it
   cannot merge). At the crash line 7's entries sit in the back end, on
   the path and in the front queue, and line 8's on the path and in the
   front queue. Undone newest first, both words return to their
   pre-region values; the committed region before them survives, slots
   and resume record included. *)
let test_crash_undo_spans_back_path_front () =
  let t = mk () in
  let store ~cycle ~line ~from ~to_ ~version =
    ignore (store_on t ~core:0 ~cycle ~line ~from ~to_ ~version)
  in
  (* committed region: line 7 = 10, line 8 = 30, slot 4 = 77 *)
  store ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1;
  store ~cycle:0 ~line:8 ~from:0 ~to_:30 ~version:1;
  Persist.on_ckpt t ~core:0 ~slot:4 ~value:77;
  ignore
    (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:3
       ~sp:100 ~row:(-1));
  (* interrupted region; a data entry drains 4 cycles after the previous
     one and arrives 40 cycles after it drains *)
  store ~cycle:200 ~line:7 ~from:10 ~to_:11 ~version:2;  (* drains 201, back *)
  store ~cycle:210 ~line:7 ~from:11 ~to_:12 ~version:3;  (* drains 211, path *)
  store ~cycle:212 ~line:8 ~from:30 ~to_:31 ~version:2;  (* drains 215, path *)
  store ~cycle:245 ~line:7 ~from:12 ~to_:13 ~version:4;  (* front *)
  store ~cycle:245 ~line:8 ~from:31 ~to_:32 ~version:3;  (* front *)
  Persist.on_ckpt t ~core:0 ~slot:4 ~value:99;
  let image = Persist.crash_recover t ~cycle:245 in
  let word line = Memory.read image.Persist.nvm (Memory.addr_of_line line) in
  Alcotest.(check int) "line 7 rolled back across back, path, front" 10
    (word 7);
  Alcotest.(check int) "line 8 rolled back across path, front" 30 (word 8);
  Alcotest.(check int) "committed slot" 77 image.Persist.slots.(0).(4);
  (match image.Persist.resume.(0) with
   | Persist.Resume { boundary = 3; sp = 100 } -> ()
   | Persist.Resume _ | Persist.Done | Persist.Never_started ->
     Alcotest.fail "expected resume at boundary 3");
  Alcotest.(check int) "five undo records replayed" 5
    image.Persist.replayed.(0)

(* A region's checkpoint slots ride the proxy path with its commit
   marker. The next three cases pin the timing of that marker — one
   marker gap per slot ahead of the commit itself — at the three places
   that can see it: the sync modes' drained check, the store path's
   drain-time raise and the crash walk. *)
let sim_one_core =
  { Config.sim_default with Config.cores = 1; conflict_fence = false }

let close_with_slots t ~cycle ~slots ~boundary =
  for slot = 0 to slots - 1 do
    Persist.on_ckpt t ~core:0 ~slot ~value:(100 + slot)
  done;
  Persist.on_boundary t ~core:0 ~cycle ~boundary ~sp:64 ~row:(-1)

(* A 20-slot region's commit leaves at cycle 20 and lands at 60, one
   marker gap per slot after its first slot would have landed (40). A
   region closed at 45, inside that window, is not drained until the
   commit lands. *)
let test_drained_window () =
  let t = mk ~mode:Persist.Naive_sync ~cfg:sim_one_core () in
  Alcotest.(check int) "20-slot region stalls until its commit leaves" 20
    (close_with_slots t ~cycle:0 ~slots:20 ~boundary:1);
  Alcotest.(check int) "1-slot region waits for the 20 slots to land" 15
    (close_with_slots t ~cycle:45 ~slots:1 ~boundary:2);
  Alcotest.(check int) "only the first region committed" 1
    (Persist.stats t).Persist.commits

(* One store, then a region with an output and 20 slots closed in the
   same cycle, then a store of the next region while the slots are
   still leaving the front queue. *)
let guard_scenario () =
  let t = mk ~cfg:sim_one_core () in
  store t ~cycle:100 ~line:7 ~from:0 ~to_:1 ~version:1;
  Persist.on_out t ~core:0 ~value:42;
  ignore (close_with_slots t ~cycle:100 ~slots:20 ~boundary:1);
  store t ~cycle:110 ~line:8 ~from:0 ~to_:2 ~version:2;
  t

(* The data entry drains at 101 and the commit 4 + 20 cycles later, at
   125; the store at 110 must not push that departure back. *)
let test_store_keeps_commit_departure () =
  let t = guard_scenario () in
  Persist.advance t ~cycle:10_000;
  Alcotest.(check (list (pair int int))) "acked when the commit lands"
    [ (42, 165) ]
    (Persist.journal_entries t ~core:0)

let image_key (img : Persist.image) =
  let ints a = String.concat "," (List.map string_of_int a) in
  let line l = ints (Array.to_list (Memory.line_snapshot img.Persist.nvm l)) in
  let resume =
    match img.Persist.resume.(0) with
    | Persist.Resume { boundary; sp } -> Printf.sprintf "R%d/%d" boundary sp
    | Persist.Done -> "D"
    | Persist.Never_started -> "N"
  in
  Printf.sprintf "%s|%s|%s|%s|%s|%s|%d|%d" (line 7) (line 8) resume
    (ints (Array.to_list img.Persist.slots.(0)))
    (ints img.Persist.journal.(0))
    (String.concat ","
       (List.map (fun (v, c) -> Printf.sprintf "%d@%d" v c)
          img.Persist.acked.(0)))
    img.Persist.acked_base.(0) img.Persist.replayed.(0)

(* The same scenario crashed at every cycle from 110 to 200: whether
   the slots are in the front queue, on the path or landed, recovery
   must group them with their commit. *)
let test_crash_sweep_slots_with_commit () =
  let keys =
    List.init 91 (fun i ->
        image_key (Persist.crash_recover (guard_scenario ()) ~cycle:(110 + i)))
  in
  Alcotest.(check int) "distinct images" 56
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check string) "images digest" "6199ec54a4781073e02887d4b6fa1423"
    (Digest.to_hex (Digest.string (String.concat "\n" keys)))

(* One power cycle on two cores: stores, checkpoints, a journaled
   output, commits, a writeback, interrupted regions (one staging a slot
   an earlier region committed) and the crash. *)
let power_cycle t =
  ignore (store_on t ~core:0 ~cycle:0 ~line:7 ~from:0 ~to_:10 ~version:1);
  ignore (store_on t ~core:1 ~cycle:0 ~line:9 ~from:0 ~to_:30 ~version:1);
  Persist.on_ckpt t ~core:0 ~slot:3 ~value:5;
  Persist.on_ckpt t ~core:1 ~slot:2 ~value:8;
  Persist.on_out t ~core:0 ~value:77;
  ignore (Persist.on_boundary t ~core:0 ~cycle:1 ~boundary:1 ~sp:4 ~row:(-1));
  ignore (store_on t ~core:0 ~cycle:2 ~line:8 ~from:0 ~to_:20 ~version:1);
  Persist.on_writeback t ~cycle:3 ~line:9 ~data:(line_data 30) ~version:1;
  ignore (Persist.on_boundary t ~core:1 ~cycle:4 ~boundary:2 ~sp:6 ~row:(-1));
  Persist.on_ckpt t ~core:1 ~slot:2 ~value:9;
  ignore (store_on t ~core:1 ~cycle:5 ~line:11 ~from:0 ~to_:40 ~version:2);
  Persist.crash_recover t ~cycle:400

(* Everything an image holds, NVM line versions included. *)
let image_view (i : Persist.image) =
  let lines = ref [] in
  Memory.iter_lines i.Persist.nvm (fun l data ->
      lines :=
        (l, Memory.line_version i.Persist.nvm l, Array.to_list data) :: !lines);
  ( List.sort compare !lines,
    (i.Persist.resume, i.Persist.slots, i.Persist.acked, i.Persist.acked_base),
    i.Persist.replayed )

let test_restart_is_fresh () =
  let cfg = { config with Config.cores = 2 } in
  let image = power_cycle (mk ~cfg ()) in
  let fresh () =
    let t = mk ~cfg () in
    Persist.install_image t image.Persist.nvm;
    t
  in
  let restarted () =
    let t = mk ~cfg () in
    ignore (power_cycle t);
    Persist.restart t image.Persist.nvm;
    t
  in
  Alcotest.(check bool) "counters" true
    (Persist.stats (restarted ()) = Persist.stats (fresh ()));
  let crash t = image_view (Persist.crash_recover t ~cycle:0) in
  Alcotest.(check bool) "durable records" true
    (crash (restarted ()) = crash (fresh ()));
  let cycle t = (image_view (power_cycle t), Persist.stats t) in
  Alcotest.(check bool) "the next power cycle" true
    (cycle (restarted ()) = cycle (fresh ()))

let suite =
  [
    Alcotest.test_case "merge within region" `Quick test_merge_within_region;
    Alcotest.test_case "no merge across regions" `Quick
      test_no_merge_across_regions;
    Alcotest.test_case "boundary elision" `Quick test_boundary_elision;
    Alcotest.test_case "commit reaches NVM" `Quick test_commit_reaches_nvm;
    Alcotest.test_case "uncommitted stays out" `Quick
      test_uncommitted_stays_out;
    Alcotest.test_case "crash: redo committed" `Quick test_crash_redo_committed;
    Alcotest.test_case "crash: undo interrupted" `Quick
      test_crash_undo_interrupted;
    Alcotest.test_case "Figure 7 writeback race" `Quick
      test_figure7_writeback_race;
    Alcotest.test_case "version guard vs stale redo" `Quick
      test_scan_invalidation_saves_bandwidth;
    Alcotest.test_case "monitoring window" `Quick test_monitor_window;
    Alcotest.test_case "naive mode stalls at boundaries" `Quick
      test_naive_sync_stalls;
    Alcotest.test_case "capri mode is asynchronous" `Quick test_capri_async;
    Alcotest.test_case "front-end backpressure" `Quick
      test_front_proxy_backpressure;
    Alcotest.test_case "region overflow detected" `Quick
      test_region_overflow_detected;
    Alcotest.test_case "multi-core isolation" `Quick test_multi_core_isolation;
    Alcotest.test_case "halt commits in background" `Quick
      test_halt_commits_in_background;
    Alcotest.test_case "crash: undo spans back, path and front" `Quick
      test_crash_undo_spans_back_path_front;
    Alcotest.test_case "sync: undrained while slots land" `Quick
      test_drained_window;
    Alcotest.test_case "store keeps the commit's departure" `Quick
      test_store_keeps_commit_departure;
    Alcotest.test_case "crash sweep: slots ride their commit" `Quick
      test_crash_sweep_slots_with_commit;
    Alcotest.test_case "restart equals a fresh engine" `Quick
      test_restart_is_fresh;
  ]
