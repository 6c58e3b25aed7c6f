(* Architecture substrate: functional memory, caches, hierarchy
   coherence, writeback values. *)

open Capri
module Cache = Capri_arch.Cache
module Hier = Capri_arch.Hierarchy

let test_memory_basics () =
  let m = Memory.create () in
  Alcotest.(check int) "zero default" 0 (Memory.read m 100);
  Memory.write m 100 42;
  Alcotest.(check int) "read back" 42 (Memory.read m 100);
  Memory.write m 101 43;
  let line = Memory.line_of_addr 100 in
  Alcotest.(check int) "same line" line (Memory.line_of_addr 101);
  let snap = Memory.line_snapshot m line in
  Alcotest.(check int) "snapshot word" 42 (snap.(100 mod 8));
  (* snapshots are copies *)
  snap.(100 mod 8) <- 0;
  Alcotest.(check int) "isolation" 42 (Memory.read m 100)

let test_memory_versions () =
  let m = Memory.create () in
  let line = Memory.line_of_addr 64 in
  Alcotest.(check int) "fresh version" 0 (Memory.line_version m line);
  Memory.write m 64 1;
  Memory.write m 65 2;
  Alcotest.(check int) "bumped twice" 2 (Memory.line_version m line);
  Memory.write m 72 9;  (* different line *)
  Alcotest.(check int) "isolated" 2 (Memory.line_version m line)

let test_memory_equal_diff () =
  let a = Memory.create () and b = Memory.create () in
  Memory.write a 10 1;
  Memory.write b 10 1;
  Alcotest.(check bool) "equal" true (Memory.equal a b);
  Memory.write b 11 7;
  Alcotest.(check bool) "unequal" false (Memory.equal a b);
  (match Memory.diff a b with
   | [ (addr, va, vb) ] ->
     Alcotest.(check int) "addr" 11 addr;
     Alcotest.(check int) "a" 0 va;
     Alcotest.(check int) "b" 7 vb
   | _ -> Alcotest.fail "expected one diff");
  (* zero-valued line vs absent line are equal *)
  Memory.write b 11 0;
  Alcotest.(check bool) "zero = absent" true (Memory.equal a b)

let test_cache_lru () =
  let c = Cache.create ~sets:1 ~ways:2 in
  Alcotest.(check int) "miss insert" Cache.no_line
    (Cache.insert c 1 ~dirty:false);
  ignore (Cache.insert c 2 ~dirty:true);
  Cache.touch c 1 ~dirty:false;  (* 1 is now MRU, 2 LRU *)
  Alcotest.(check int) "LRU victim" 2 (Cache.insert c 3 ~dirty:false);
  Alcotest.(check bool) "victim was dirty" true (Cache.evicted_dirty c);
  Alcotest.(check bool) "1 resident" true (Cache.mem c 1);
  Alcotest.(check bool) "2 gone" false (Cache.mem c 2);
  Alcotest.(check bool) "3 resident" true (Cache.mem c 3)

let test_cache_dirty_invalidate () =
  let c = Cache.create ~sets:2 ~ways:1 in
  ignore (Cache.insert c 4 ~dirty:false);
  Cache.touch c 4 ~dirty:true;
  Alcotest.(check bool) "dirty" true (Cache.is_dirty c 4);
  Alcotest.(check bool) "invalidate returns dirty" true (Cache.invalidate c 4);
  Alcotest.(check bool) "gone" false (Cache.mem c 4);
  Alcotest.(check bool) "double invalidate" false (Cache.invalidate c 4)

let test_cache_reset () =
  let used = Cache.create ~sets:2 ~ways:2 in
  List.iter (fun l -> ignore (Cache.insert used l ~dirty:(l mod 2 = 0)))
    [ 0; 1; 2; 3; 4; 5 ];
  Cache.touch used 4 ~dirty:true;
  Cache.clear used;
  Cache.reset used;
  Alcotest.(check int) "empty" 0 (Cache.resident used);
  Alcotest.(check (list int)) "nothing dirty" [] (Cache.dirty_lines used);
  let fresh = Cache.create ~sets:2 ~ways:2 in
  let replay c =
    List.map
      (fun l ->
        if Cache.mem c l then begin
          Cache.touch c l ~dirty:true;
          (l, Cache.no_line, false)
        end
        else
          let victim = Cache.insert c l ~dirty:false in
          (l, victim, Cache.evicted_dirty c))
      [ 5; 6; 7; 5; 9; 11; 6; 13; 7 ]
  in
  Alcotest.(check (list (triple int int bool))) "behaves as a fresh cache"
    (replay fresh) (replay used);
  let counts c =
    let s = Cache.stats c in
    (s.Cache.insertions, s.Cache.evictions, s.Cache.dirty_evictions)
  in
  Alcotest.(check (triple int int int)) "counts since the reset"
    (counts fresh) (counts used)

let test_cache_set_isolation () =
  let c = Cache.create ~sets:2 ~ways:1 in
  ignore (Cache.insert c 0 ~dirty:false);  (* set 0 *)
  ignore (Cache.insert c 1 ~dirty:false);  (* set 1 *)
  Alcotest.(check int) "both resident" 2 (Cache.resident c);
  (* line 2 maps to set 0: evicts line 0, not line 1 *)
  Alcotest.(check int) "victim" 0 (Cache.insert c 2 ~dirty:false);
  Alcotest.(check bool) "line 1 untouched" true (Cache.mem c 1)

let mk_hier ?(cores = 2) () =
  let config =
    { Config.sim_default with
      Config.cores;
      l1_lines = 4;
      l1_ways = 2;
      l2_lines = 8;
      l2_ways = 2;
      dram_cache_lines = 16;
    }
  in
  let memory = Memory.create () in
  let writebacks = ref [] in
  let hier =
    Hier.create config
      ~on_nvm_writeback:(fun ~cycle:_ ~line ->
        writebacks :=
          (line, Memory.line_snapshot memory line,
           Memory.line_version memory line)
          :: !writebacks)
  in
  (config, memory, hier, writebacks)

let test_hierarchy_levels () =
  let _, _, hier, _ = mk_hier () in
  Alcotest.(check bool) "first touch from NVM" true
    (Hier.load hier ~core:0 ~cycle:0 ~addr:100 = Hier.Nvm);
  Alcotest.(check bool) "second touch L1" true
    (Hier.load hier ~core:0 ~cycle:1 ~addr:100 = Hier.L1);
  Alcotest.(check bool) "same line L1" true
    (Hier.load hier ~core:0 ~cycle:2 ~addr:101 = Hier.L1)

let test_hierarchy_single_dirty_owner () =
  let _, memory, hier, _ = mk_hier () in
  Memory.write memory 100 7;
  ignore (Hier.store hier ~core:0 ~cycle:0 ~addr:100);
  (* Core 1 writes the same line: ownership migrates. *)
  Memory.write memory 100 8;
  ignore (Hier.store hier ~core:1 ~cycle:1 ~addr:100);
  let s = Hier.stats hier in
  Alcotest.(check bool) "invalidation happened" true (s.Hier.invalidations >= 1)

let test_writeback_carries_current_data () =
  let _, memory, hier, writebacks = mk_hier ~cores:1 () in
  (* Dirty a line, then stream enough lines through the tiny hierarchy to
     force it all the way out to NVM. *)
  Memory.write memory 80 123;
  ignore (Hier.store hier ~core:0 ~cycle:0 ~addr:80);
  Hier.flush_all hier ~cycle:10;
  let line = Memory.line_of_addr 80 in
  (match List.find_opt (fun (l, _, _) -> l = line) !writebacks with
   | Some (_, data, version) ->
     Alcotest.(check int) "payload is architectural value" 123
       data.(80 mod 8);
     Alcotest.(check int) "stamped with line version" 1 version
   | None -> Alcotest.fail "no writeback for the dirty line")

let test_flush_then_drop_empty () =
  let _, memory, hier, writebacks = mk_hier ~cores:1 () in
  Memory.write memory 160 5;
  ignore (Hier.store hier ~core:0 ~cycle:0 ~addr:160);
  Hier.flush_all hier ~cycle:1;
  let n = List.length !writebacks in
  Alcotest.(check bool) "flush wrote back" true (n >= 1);
  (* flushing again writes nothing: caches are clean *)
  Hier.flush_all hier ~cycle:2;
  Alcotest.(check int) "idempotent" n (List.length !writebacks);
  Hier.drop_all hier;
  Alcotest.(check bool) "after drop, line misses" true
    (Hier.load hier ~core:0 ~cycle:3 ~addr:160 <> Hier.L1)

let test_eviction_cascade () =
  let _, memory, hier, writebacks = mk_hier ~cores:1 () in
  (* Touch far more distinct lines than the whole hierarchy holds; dirty
     them all so evictions cascade to NVM. *)
  for i = 0 to 63 do
    let addr = i * 8 in
    Memory.write memory addr i;
    ignore (Hier.store hier ~core:0 ~cycle:i ~addr)
  done;
  Alcotest.(check bool) "cascaded writebacks" true
    (List.length !writebacks > 0);
  (* Every writeback's payload matches the architectural value at the
     time (single-dirty-copy invariant). *)
  List.iter
    (fun (line, data, _) ->
      let addr = line * 8 in
      Alcotest.(check int)
        (Printf.sprintf "line %d payload" line)
        (Memory.read memory addr) data.(0))
    !writebacks

(* Stacks grow below the data segment, so negative word addresses are
   real; line arithmetic must floor toward minus infinity. *)
let test_memory_negative_addrs () =
  let m = Memory.create () in
  let lw = Capri_arch.Config.line_words in
  for a = -(2 * lw) - 3 to lw + 2 do
    Memory.write m a (1000 + a)
  done;
  for a = -(2 * lw) - 3 to lw + 2 do
    Alcotest.(check int)
      (Printf.sprintf "read back addr %d" a)
      (1000 + a) (Memory.read m a)
  done;
  Alcotest.(check int) "line of -1" (-1) (Memory.line_of_addr (-1));
  Alcotest.(check int) "line of -lw" (-1) (Memory.line_of_addr (-lw));
  Alcotest.(check int) "line of -lw-1" (-2) (Memory.line_of_addr (-lw - 1));
  Alcotest.(check int) "addr of line -1" (-lw) (Memory.addr_of_line (-1));
  (* a snapshot of a negative line sees the words written across the
     line boundary *)
  let snap = Memory.line_snapshot m (-1) in
  Alcotest.(check int) "snap first word" (1000 - lw) snap.(0);
  Alcotest.(check int) "snap last word" (1000 - 1) snap.(lw - 1);
  Alcotest.(check bool)
    "negative line present" true
    (Memory.line_version m (-1) > 0);
  (* a copy carries the negative pages too *)
  let c = Memory.copy m in
  Alcotest.(check bool) "copy equal" true (Memory.equal m c);
  Memory.write c (-1) 0;
  Alcotest.(check int) "copy isolated" (1000 - 1) (Memory.read m (-1))

let test_write_line_masked_partial () =
  let m = Memory.create () in
  let lw = Capri_arch.Config.line_words in
  let base = 20 * lw in
  let line = Memory.line_of_addr base in
  for o = 0 to lw - 1 do
    Memory.write m (base + o) (o + 1)
  done;
  let v0 = Memory.line_version m line in
  let data = Array.init lw (fun o -> 10 * (o + 1)) in
  (* overwrite words 0, 2 and the last one only *)
  let mask = 0b101 lor (1 lsl (lw - 1)) in
  Memory.write_line_masked m line data mask;
  for o = 0 to lw - 1 do
    let expect = if mask land (1 lsl o) <> 0 then 10 * (o + 1) else o + 1 in
    Alcotest.(check int) (Printf.sprintf "word %d" o) expect
      (Memory.read m (base + o))
  done;
  Alcotest.(check bool) "version bumped" true (Memory.line_version m line > v0);
  (* a masked write to an absent line materializes it, unset words zero *)
  let nline = Memory.line_of_addr (-8 * lw) in
  Memory.write_line_masked m nline data 0b10;
  Alcotest.(check int) "masked word set" 20
    (Memory.read m (Memory.addr_of_line nline + 1));
  Alcotest.(check int) "unmasked word zero" 0
    (Memory.read m (Memory.addr_of_line nline));
  Alcotest.(check bool) "line materialized" true (Memory.line_version m nline > 0)

let test_diff_from () =
  let lw = Capri_arch.Config.line_words in
  let a = Memory.create () and b = Memory.create () in
  Memory.write a 5 1;
  Memory.write b 5 2;
  (* mismatch below zero *)
  Memory.write a (-3) 7;
  (* equal line *)
  Memory.write a (25 * lw) 9;
  Memory.write b (25 * lw) 9;
  (* line absent in a entirely *)
  Memory.write b (40 * lw) 4;
  Alcotest.(check (list (triple int int int)))
    "full diff"
    [ (-3, 7, 0); (5, 1, 2); (40 * lw, 0, 4) ]
    (Memory.diff a b);
  Alcotest.(check (list (triple int int int)))
    "diff from 0" [ (5, 1, 2); (40 * lw, 0, 4) ]
    (Memory.diff ~from:0 a b);
  Alcotest.(check (list (triple int int int)))
    "diff from above" [ (40 * lw, 0, 4) ]
    (Memory.diff ~from:(lw) a b);
  Alcotest.(check bool) "equal under from" true
    (Memory.equal ~from:(40 * lw + 1) a b)

let suite =
  [
    Alcotest.test_case "memory basics" `Quick test_memory_basics;
    Alcotest.test_case "memory versions" `Quick test_memory_versions;
    Alcotest.test_case "memory equal/diff" `Quick test_memory_equal_diff;
    Alcotest.test_case "memory negative addresses" `Quick
      test_memory_negative_addrs;
    Alcotest.test_case "memory masked line writes" `Quick
      test_write_line_masked_partial;
    Alcotest.test_case "memory diff ~from" `Quick test_diff_from;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache dirty/invalidate" `Quick
      test_cache_dirty_invalidate;
    Alcotest.test_case "cache set isolation" `Quick test_cache_set_isolation;
    Alcotest.test_case "hierarchy hit levels" `Quick test_hierarchy_levels;
    Alcotest.test_case "single dirty owner" `Quick
      test_hierarchy_single_dirty_owner;
    Alcotest.test_case "writeback payload correctness" `Quick
      test_writeback_carries_current_data;
    Alcotest.test_case "flush and drop" `Quick test_flush_then_drop_empty;
    Alcotest.test_case "eviction cascade" `Quick test_eviction_cascade;
    Alcotest.test_case "cache reset" `Quick test_cache_reset;
  ]
