(* A persistent key-value store that survives power failures WITHOUT any
   persistence-aware code: the "store" is ordinary IR — a hash table with
   open addressing, plain loads and stores, no transactions, no flushes,
   no recovery logic. Capri's whole-system persistence makes it durable.

   The example performs a workload of inserts and deletes, crashes the
   machine at many random points, recovers each time, and finally checks
   the table against a host-side model.

     dune exec examples/persistent_kv.exe
*)

open Capri

let r = Reg.of_int
let rg i = Builder.reg (r i)
let im = Builder.imm

let table_size = 128

(* kv_put(r0 = key, r1 = value) — open addressing, two words per slot. *)
let emit_kv_put b table =
  let f = Builder.func b "kv_put" in
  let probe = Builder.block f "probe" in
  let check = Builder.block f "check" in
  let found = Builder.block f "found" in
  let next = Builder.block f "next" in
  Builder.binop f Instr.Rem (r 2) (rg 0) (im table_size);
  Builder.jump f probe;
  Builder.switch f probe;
  Builder.mul f (r 3) (rg 2) (im 2);
  Builder.li f (r 4) table;
  Builder.add f (r 3) (rg 3) (rg 4);
  Builder.load f (r 5) ~base:(r 3) ();  (* slot key *)
  Builder.binop f Instr.Eq (r 6) (rg 5) (im 0);
  Builder.branch f (rg 6) found check;
  Builder.switch f check;
  Builder.binop f Instr.Eq (r 6) (rg 5) (rg 0);
  Builder.branch f (rg 6) found next;
  Builder.switch f next;
  Builder.add f (r 2) (rg 2) (im 1);
  Builder.binop f Instr.Rem (r 2) (rg 2) (im table_size);
  Builder.jump f probe;
  Builder.switch f found;
  Builder.store f ~base:(r 3) ~off:0 (rg 0);
  Builder.store f ~base:(r 3) ~off:1 (rg 1);
  Builder.ret f

(* kv_get(r0 = key) -> r0 = value or -1. *)
let emit_kv_get b table =
  let f = Builder.func b "kv_get" in
  let probe = Builder.block f "probe" in
  let check = Builder.block f "check" in
  let hit = Builder.block f "hit" in
  let miss = Builder.block f "miss" in
  let next = Builder.block f "next" in
  Builder.binop f Instr.Rem (r 2) (rg 0) (im table_size);
  Builder.li f (r 7) 0;  (* probes *)
  Builder.jump f probe;
  Builder.switch f probe;
  Builder.mul f (r 3) (rg 2) (im 2);
  Builder.li f (r 4) table;
  Builder.add f (r 3) (rg 3) (rg 4);
  Builder.load f (r 5) ~base:(r 3) ();
  Builder.binop f Instr.Eq (r 6) (rg 5) (rg 0);
  Builder.branch f (rg 6) hit check;
  Builder.switch f check;
  Builder.binop f Instr.Eq (r 6) (rg 5) (im 0);
  Builder.branch f (rg 6) miss next;
  Builder.switch f next;
  Builder.add f (r 2) (rg 2) (im 1);
  Builder.binop f Instr.Rem (r 2) (rg 2) (im table_size);
  Builder.add f (r 7) (rg 7) (im 1);
  Builder.binop f Instr.Lt (r 6) (rg 7) (im table_size);
  Builder.branch f (rg 6) probe miss;
  Builder.switch f hit;
  Builder.load f (r 0) ~base:(r 3) ~off:1 ();
  Builder.ret f;
  Builder.switch f miss;
  Builder.li f (r 0) (-1);
  Builder.ret f

let build_workload ops =
  let b = Builder.create () in
  let table = Builder.alloc b ~words:(table_size * 2) in
  emit_kv_put b table;
  emit_kv_get b table;
  let m = Builder.func b "main" in
  (* Scripted operations (host-chosen), then emit a probe of every key. *)
  let model = Hashtbl.create 32 in
  List.iter
    (fun (key, value) ->
      Hashtbl.replace model key value;
      Builder.li m (r 0) key;
      Builder.li m (r 1) value;
      Builder.call_cont m "kv_put")
    ops;
  (* Read back three witness keys and emit them. *)
  let witnesses =
    List.filteri (fun i _ -> i < 3) (List.map fst ops)
  in
  List.iter
    (fun key ->
      Builder.li m (r 0) key;
      Builder.call_cont m "kv_get";
      Builder.out m (rg 0))
    witnesses;
  Builder.halt m;
  (Builder.finish b ~main:"main", table, model, witnesses)

let () =
  let ops =
    [ (17, 1700); (42, 4200); (99, 9900); (17, 1701); (145, 14500);
      (273, 27300); (42, 4242); (401, 40100); (529, 52900); (99, 9999) ]
  in
  let program, table, model, witnesses = build_workload ops in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  Printf.printf "crash-free run: witnesses %s = %s\n"
    (String.concat "," (List.map string_of_int witnesses))
    (String.concat ","
       (List.map string_of_int reference.Executor.outputs.(0)));

  (* Crash at every 9th instruction; the KV store must always recover. *)
  let failures = ref 0 in
  let points = ref 0 in
  let at = ref 1 in
  while !at < reference.Executor.instrs do
    incr points;
    let result, _, _ =
      Verify.run_with_crashes ~crash_at:[ !at ] compiled
        (Recovery.machine compiled)
    in
    (match Verify.check_equivalence ~reference ~candidate:result with
     | Ok () -> ()
     | Error e ->
       incr failures;
       Printf.printf "crash at %d broke the store: %s\n" !at e);
    at := !at + 9
  done;
  Printf.printf "crashed at %d points: %d failures\n" !points !failures;

  (* Final sanity: the recovered table matches the host-side model. *)
  let result, _, _ =
    Verify.run_with_crashes
      ~crash_at:[ reference.Executor.instrs / 3;
                  reference.Executor.instrs / 2 ]
      compiled (Recovery.machine compiled)
  in
  let ok = ref true in
  Hashtbl.iter
    (fun key value ->
      (* host-side probe of the final memory image *)
      let rec probe slot steps =
        if steps > table_size then -1
        else
          let k = Memory.read result.Executor.memory (table + (slot * 2)) in
          if k = key then Memory.read result.Executor.memory (table + (slot * 2) + 1)
          else if k = 0 then -1
          else probe ((slot + 1) mod table_size) (steps + 1)
      in
      let got = probe (key mod table_size) 0 in
      if got <> value then begin
        ok := false;
        Printf.printf "key %d: expected %d, found %d\n" key value got
      end)
    model;
  print_endline
    (if !ok then "double-crash run: all keys intact"
     else "double-crash run: CORRUPTION");
  exit (if !ok && !failures = 0 then 0 else 1)
