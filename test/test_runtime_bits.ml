(* Runtime plumbing: code addressing, address-space layout, the verifier's
   stream logic, and executor odds and ends. *)

open Capri
open Helpers

let test_code_round_trip () =
  let program, _ = sum_program () in
  let code = Capri_runtime.Code.build program in
  let f = Program.find_func program "main" in
  List.iter
    (fun (b : Block.t) ->
      let addr =
        Capri_runtime.Code.addr_of code ~func:"main" b.Block.label
      in
      let fname, label = Capri_runtime.Code.target_of code addr in
      Alcotest.(check string) "func" "main" fname;
      Alcotest.(check string) "label" (Label.to_string b.Block.label)
        (Label.to_string label))
    (Func.blocks f)

let test_code_addresses_distinct () =
  let program = fib_program () in
  let code = Capri_runtime.Code.build program in
  let addrs = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun (b : Block.t) ->
          addrs :=
            Capri_runtime.Code.addr_of code ~func:(Func.name f) b.Block.label
            :: !addrs)
        (Func.blocks f))
    program.Program.funcs;
  let sorted = List.sort_uniq compare !addrs in
  Alcotest.(check int) "all distinct" (List.length !addrs)
    (List.length sorted)

let test_layout_stacks_disjoint () =
  let tops = List.init 8 (fun core -> Capri_runtime.Layout.stack_top ~core) in
  let sorted = List.sort_uniq compare tops in
  Alcotest.(check int) "distinct" 8 (List.length sorted);
  List.iter
    (fun top ->
      Alcotest.(check bool) "below data" true (top <= Builder.data_base))
    tops;
  (* full stacks never overlap *)
  List.iteri
    (fun i top ->
      List.iteri
        (fun j top' ->
          if i <> j then
            Alcotest.(check bool) "no overlap" true
              (abs (top - top')
               >= Capri_runtime.Layout.stack_words_per_core))
        tops)
    tops

let test_positions_api () =
  let program, _ = sum_program ~n:5 () in
  let compiled = compile program in
  let session =
    Executor.start ~program:compiled.Compiled.program
      ~threads:[ Executor.main_thread compiled.Compiled.program ] ()
  in
  (match Executor.run ~crash_at_instr:10 session with
   | Executor.Crashed _ -> ()
   | Executor.Finished _ -> Alcotest.fail "expected crash");
  let positions = Executor.positions session in
  Alcotest.(check int) "one core" 1 (Array.length positions);
  let fname, _label, _idx, cycle = positions.(0) in
  Alcotest.(check string) "in main" "main" fname;
  Alcotest.(check bool) "cycle advanced" true (cycle > 0)

let test_outputs_preserved_across_sessions () =
  (* Emissions before a crash belong to the observable stream. *)
  let b = Builder.create () in
  let cell = Builder.alloc b ~words:1 in
  let f = Builder.func b "main" in
  Builder.li f (r 1) 7;
  Builder.out f (rg 1);
  Builder.fence f;
  Builder.li f (r 2) cell;
  Builder.store f ~base:(r 2) (rg 1);
  Builder.fence f;
  Builder.out f (im 8);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  Alcotest.(check (list int)) "reference" [ 7; 8 ]
    reference.Executor.outputs.(0);
  (* crash late: the early output must still be in the stream *)
  let result, _, _ =
    Verify.run_with_crashes
      ~crash_at:[ reference.Executor.instrs - 2 ]
      compiled
  in
  Alcotest.(check bool) "7 present" true
    (List.mem 7 result.Executor.outputs.(0))

let test_check_equivalence_rejects () =
  let program, _ = sum_program ~n:4 () in
  let compiled = compile program in
  let a = Verify.reference compiled in
  (* doctor a mismatching candidate *)
  let bad_mem = Memory.copy a.Executor.memory in
  Memory.write bad_mem Builder.data_base 424242;
  let candidate = { a with Executor.memory = bad_mem } in
  (match Verify.check_equivalence ~reference:a ~candidate with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "memory mismatch accepted");
  let candidate2 =
    { a with Executor.outputs = Array.map (fun _ -> []) a.Executor.outputs }
  in
  match Verify.check_equivalence ~reference:a ~candidate:candidate2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "lost outputs accepted"

let test_region_map_queries () =
  let program, _, _ = mixed_program ~n:8 () in
  let compiled = compile program in
  let map = compiled.Compiled.regions in
  let module RM = Capri_compiler.Region_map in
  Alcotest.(check bool) "has regions" true (RM.region_count map > 0);
  List.iter
    (fun (region : RM.region) ->
      Alcotest.(check bool) "head in members" true
        (Label.Set.mem region.RM.head region.RM.members);
      Alcotest.(check string) "head lookup" (Label.to_string region.RM.head)
        (Label.to_string (RM.head_of map region.RM.id));
      Label.Set.iter
        (fun l ->
          Alcotest.(check int) "member maps back" region.RM.id
            (RM.region_of_block map ~func:region.RM.func l))
        region.RM.members)
    (RM.regions map);
  Alcotest.(check bool) "bound positive" true (RM.max_store_bound map > 0)

let test_emit_lock_mutual_exclusion () =
  (* Two threads hammer a lock-protected counter; the final count must be
     exact (no lost updates) under both volatile and Capri execution. *)
  let b = Builder.create () in
  let lock = Builder.alloc_init b [| 0 |] in
  let counter = Builder.alloc_init b [| 0 |] in
  let f = Builder.func b "worker" in
  let iters = 25 in
  Capri_workloads.Emit.counted_loop f ~idx:(r 1) ~from:0 ~below:None
    ~bound:iters
    ~body:(fun () ->
      Builder.li f (r 21) lock;
      Capri_workloads.Emit.spin_lock f ~addr:(r 21) ~scratch:(r 25);
      Builder.li f (r 22) counter;
      Builder.load f (r 10) ~base:(r 22) ();
      Builder.add f (r 10) (rg 10) (im 1);
      Builder.store f ~base:(r 22) (rg 10);
      Builder.li f (r 21) lock;
      Capri_workloads.Emit.spin_unlock f ~addr:(r 21));
  Builder.li f (r 23) counter;
  Builder.load f (r 0) ~base:(r 23) ();
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  let threads =
    [ { Executor.func = "worker"; args = [] };
      { Executor.func = "worker"; args = [] } ]
  in
  let vol = run_volatile ~threads program in
  Alcotest.(check int) "volatile exact" (2 * iters)
    (Memory.read vol.Executor.memory counter);
  let compiled = compile program in
  let res = run ~threads compiled in
  Alcotest.(check int) "capri exact" (2 * iters)
    (Memory.read res.Executor.memory counter)

let test_emit_barrier_synchronizes () =
  (* Phase 1 writes, barrier, phase 2 reads the OTHER thread's value:
     without a correct barrier the read could see 0. *)
  let b = Builder.create () in
  let cells = Builder.alloc_init b [| 0; 0; 0; 0; 0; 0; 0; 0 |] in
  let barw = Builder.alloc_init b [| 0; 0 |] in
  let f = Builder.func b "worker" in
  Builder.li f (r 10) cells;
  Builder.add f (r 11) (rg 10) (rg 0);
  Builder.add f (r 12) (rg 0) (im 100);
  Builder.store f ~base:(r 11) (rg 12);  (* cells[tid] = tid + 100 *)
  Builder.li f (r 20) barw;
  Capri_workloads.Emit.barrier f ~base:(r 20) ~nthreads:2 ~s1:(r 26)
    ~s2:(r 27);
  (* read the other thread's cell *)
  Builder.binop f Instr.Xor (r 13) (rg 0) (im 1);
  Builder.add f (r 14) (rg 10) (rg 13);
  Builder.load f (r 0) ~base:(r 14) ();
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  let threads =
    [ { Executor.func = "worker"; args = [ (r 0, 0) ] };
      { Executor.func = "worker"; args = [ (r 0, 1) ] } ]
  in
  let vol = run_volatile ~threads program in
  Alcotest.(check (list int)) "thread 0 sees 101" [ 101 ]
    vol.Executor.outputs.(0);
  Alcotest.(check (list int)) "thread 1 sees 100" [ 100 ]
    vol.Executor.outputs.(1);
  let res = run ~threads (compile program) in
  Alcotest.(check (list int)) "capri thread 0" [ 101 ]
    res.Executor.outputs.(0);
  Alcotest.(check (list int)) "capri thread 1" [ 100 ]
    res.Executor.outputs.(1)

let suite =
  [
    Alcotest.test_case "code address round trip" `Quick test_code_round_trip;
    Alcotest.test_case "code addresses distinct" `Quick
      test_code_addresses_distinct;
    Alcotest.test_case "stack layout disjoint" `Quick
      test_layout_stacks_disjoint;
    Alcotest.test_case "positions API" `Quick test_positions_api;
    Alcotest.test_case "outputs survive crash sessions" `Quick
      test_outputs_preserved_across_sessions;
    Alcotest.test_case "verifier rejects mismatches" `Quick
      test_check_equivalence_rejects;
    Alcotest.test_case "region map queries" `Quick test_region_map_queries;
    Alcotest.test_case "lock mutual exclusion" `Quick
      test_emit_lock_mutual_exclusion;
    Alcotest.test_case "barrier synchronizes" `Quick
      test_emit_barrier_synchronizes;
  ]

(* The region timeline is read back from the tracer the executor
   writes its region spans to. *)
let timeline_lines ?max_rows f =
  let obs = Capri_obs.Obs.create () in
  let outcome = f obs in
  ( outcome,
    String.split_on_char '\n'
      (Executor.render_timeline ?max_rows obs.Capri_obs.Obs.tracer) )

let test_trace_records_regions () =
  let program, _ = Helpers.sum_program ~n:30 () in
  let compiled = compile program in
  let start obs =
    Executor.start ~obs ~program:compiled.Compiled.program
      ~threads:[ Executor.main_thread compiled.Compiled.program ] ()
  in
  let rows needle lines =
    List.length (List.filter (fun l -> contains l needle) lines)
  in
  (match
     timeline_lines ~max_rows:max_int (fun obs -> Executor.run (start obs))
   with
   | Executor.Finished r, lines ->
     Alcotest.(check int) "one boundary row per boundary"
       r.Executor.boundaries (rows " boundary #" lines);
     Alcotest.(check int) "one halt row" 1 (rows " halt" lines);
     Alcotest.(check int) "no crash row" 0 (rows "POWER FAILURE" lines)
   | Executor.Crashed _, _ -> Alcotest.fail "unexpected crash");
  match
    timeline_lines ~max_rows:max_int (fun obs ->
        Executor.run ~crash_at_instr:20 (start obs))
  with
  | Executor.Crashed _, lines ->
    Alcotest.(check int) "crash row" 1 (rows "POWER FAILURE" lines)
  | Executor.Finished _, _ -> Alcotest.fail "expected crash"

let region_span tr ~core ~ts ~instr =
  Capri_obs.Tracer.begin_span tr ~track:(Capri_obs.Tracer.Core core)
    ~name:(Printf.sprintf "b%d" instr) ~ts
    ~args:[ ("stores", "1"); ("instr", string_of_int instr) ]

let test_trace_render_truncation () =
  let module Tracer = Capri_obs.Tracer in
  let tr = Tracer.create () in
  for i = 0 to 99 do
    region_span tr ~core:0 ~ts:i ~instr:i
  done;
  let lines =
    String.split_on_char '\n' (Executor.render_timeline ~max_rows:10 tr)
  in
  let last_line =
    List.fold_left (fun acc l -> if l <> "" then l else acc) "" lines
  in
  Alcotest.(check string) "truncation footer" "… (+90 more rows)" last_line;
  Alcotest.(check bool) "elision marker" true
    (List.mem "  ... 90 events elided ..." lines);
  Alcotest.(check bool) "rows kept at both ends" true
    (List.mem
       "0          0     boundary #0 (region closed with 1 stores, instr 0)"
       lines
     && List.mem
          "99         0     boundary #99 (region closed with 1 stores, instr \
           99)"
          lines);
  (* below the limit: no footer *)
  let tr2 = Tracer.create () in
  Tracer.instant tr2 ~track:(Tracer.Core 0) ~name:"halt" ~ts:5;
  Alcotest.(check string) "no footer when it fits"
    "cycle      core  event\n5          0     halt\n"
    (Executor.render_timeline ~max_rows:10 tr2)

(* Only region spans count as boundaries: sorted and deduplicated
   across cores, with boundary-stall sub-spans, request-lifecycle spans
   and the crash instant's own [instr] argument left out. *)
let test_boundary_instrs_reader () =
  let module Tracer = Capri_obs.Tracer in
  let tr = Tracer.create () in
  region_span tr ~core:1 ~ts:0 ~instr:40;
  region_span tr ~core:0 ~ts:0 ~instr:7;
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"boundary-stall" ~ts:0
    ~args:[ ("instr", "3") ];
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:2;
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:4;
  region_span tr ~core:0 ~ts:4 ~instr:40;
  Tracer.begin_span tr ~track:(Tracer.Request 0) ~name:"read" ~ts:1
    ~args:[ ("instr", "5") ];
  Tracer.end_span tr ~track:(Tracer.Request 0) ~ts:6;
  region_span tr ~core:2 ~ts:6 ~instr:12;
  Tracer.instant tr ~track:(Tracer.Core 2) ~name:"fence" ~ts:7;
  Tracer.instant tr ~track:Tracer.Proxy ~name:"crash" ~ts:8
    ~args:[ ("instr", "50") ];
  Alcotest.(check (list int)) "region-span instrs only" [ 7; 12; 40 ]
    (Executor.boundary_instrs tr);
  Alcotest.(check (list int)) "empty tracer" []
    (Executor.boundary_instrs (Tracer.create ()))

let suite = suite @ [
    Alcotest.test_case "trace records regions" `Quick
      test_trace_records_regions;
    Alcotest.test_case "trace render truncation" `Quick
      test_trace_render_truncation;
    Alcotest.test_case "trace boundary reader" `Quick
      test_boundary_instrs_reader;
  ]

(* Address-space layout with many disjoint heaps: shard tables and
   mailboxes (heap allocations) must never overlap each other, any
   core's stack, or the address space below it. *)
let test_layout_disjoint_heaps () =
  let open Capri_runtime.Layout in
  Alcotest.(check int) "heap base is the data base" Builder.data_base heap_base;
  (* stack ranges sit strictly below the heap and off each other *)
  let cores = 6 in
  check_cores cores;
  let ranges = List.init cores (fun core -> stack_range ~core) in
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool) "well-formed" true (lo < hi);
      Alcotest.(check bool) "below heap" true (hi <= heap_base);
      Alcotest.(check bool) "non-negative" true (lo >= 0))
    ranges;
  List.iteri
    (fun i (lo, hi) ->
      List.iteri
        (fun j (lo', hi') ->
          if i <> j then
            Alcotest.(check bool) "stack ranges disjoint" true
              (hi <= lo' || hi' <= lo))
        ranges)
    ranges;
  (* a multi-shard store's heap structures are pairwise disjoint *)
  let shards = 4 in
  let key_space = 16 in
  let requests =
    Array.make shards
      [| { Capri_service.Wire.op = Capri_service.Wire.Put; key = 1;
           value = 2; expected = 0 } |]
  in
  let kv = Capri_service.Kvstore.build ~key_space ~requests () in
  let extents =
    Array.to_list
      (Array.map
         (fun base -> (base, base + Capri_service.Wire.words_per_request))
         kv.Capri_service.Kvstore.mailboxes)
    @ Array.to_list
        (Array.map
           (fun base ->
             (base, base + (2 * kv.Capri_service.Kvstore.capacity)))
           kv.Capri_service.Kvstore.tables)
  in
  List.iter
    (fun (lo, _) ->
      Alcotest.(check bool) "heap allocation above heap_base" true
        (lo >= heap_base))
    extents;
  List.iteri
    (fun i (lo, hi) ->
      List.iteri
        (fun j (lo', hi') ->
          if i <> j then
            Alcotest.(check bool) "heap extents disjoint" true
              (hi <= lo' || hi' <= lo))
        extents)
    extents

let test_layout_check_cores () =
  let open Capri_runtime.Layout in
  check_cores 1;
  check_cores max_cores;
  List.iter
    (fun bad ->
      match check_cores bad with
      | () -> Alcotest.failf "check_cores accepted %d" bad
      | exception Invalid_argument _ -> ())
    [ 0; -3; max_cores + 1 ]

let suite = suite @ [
    Alcotest.test_case "layout: disjoint heaps" `Quick
      test_layout_disjoint_heaps;
    Alcotest.test_case "layout: core count validation" `Quick
      test_layout_check_cores;
  ]
