(* The two extensions implementing the paper's open problems:
   Section 3.3's journaled I/O (exactly-once outputs across crashes) and
   Section 6.3's profile-guided region formation. *)

open Capri
open Helpers
module W = Capri_workloads

(* ---------------- journaled I/O ---------------- *)

(* A chatty program: emits inside loops, so crash points frequently land
   between an emission and its region's commit. *)
let chatty_program () =
  let b = Builder.create () in
  let cell = Builder.alloc b ~words:1 in
  let f = Builder.func b "main" in
  let loop = Builder.block f "loop" in
  let body = Builder.block f "body" in
  let exit_ = Builder.block f "exit" in
  Builder.li f (r 1) 0;
  Builder.li f (r 3) cell;
  Builder.jump f loop;
  Builder.switch f loop;
  Builder.binop f Instr.Lt (r 2) (rg 1) (im 12);
  Builder.branch f (rg 2) body exit_;
  Builder.switch f body;
  Builder.out f (rg 1);
  Builder.store f ~base:(r 3) (rg 1);
  Builder.add f (r 1) (rg 1) (im 1);
  Builder.jump f loop;
  Builder.switch f exit_;
  Builder.out f (im 999);
  Builder.halt f;
  Builder.finish b ~main:"main"

let test_journal_crash_free_matches () =
  let program = chatty_program () in
  let compiled = compile program in
  let plain = run compiled in
  let r =
    Recovery.drive ~crash_at:[] compiled
      (Recovery.machine ~journal_io:true compiled)
  in
  Alcotest.(check (list int)) "same stream"
    plain.Executor.outputs.(0) r.Executor.outputs.(0)

let test_journal_exactly_once_under_crashes () =
  (* The whole point: with the journal, output streams are EXACTLY equal
     after any crash — no re-emission, no loss. *)
  let program = chatty_program () in
  let compiled = compile program in
  let reference =
    Recovery.drive ~crash_at:[] compiled
      (Recovery.machine ~journal_io:true compiled)
  in
  for at = 1 to reference.Executor.instrs - 1 do
    let crashed =
      Recovery.drive ~crash_at:[ at ] compiled
        (Recovery.machine ~journal_io:true compiled)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "exact stream after crash at %d" at)
      reference.Executor.outputs.(0) crashed.Executor.outputs.(0)
  done

let test_journal_double_crash () =
  let program = chatty_program () in
  let compiled = compile program in
  let reference =
    Recovery.drive ~crash_at:[] compiled
      (Recovery.machine ~journal_io:true compiled)
  in
  let n = reference.Executor.instrs in
  List.iter
    (fun (a, b) ->
      let crashed =
        Recovery.drive ~crash_at:[ a; b ] compiled
          (Recovery.machine ~journal_io:true compiled)
      in
      Alcotest.(check (list int)) "exact stream, double crash"
        reference.Executor.outputs.(0) crashed.Executor.outputs.(0))
    [ (n / 3, n / 4); (n / 2, 3); (2, 2) ]

let test_unjournaled_can_duplicate () =
  (* Sanity check of the baseline semantics the journal fixes: without
     it, some crash point re-emits an interrupted region's output. *)
  let program = chatty_program () in
  let compiled = compile program in
  let reference = Verify.reference compiled in
  let duplicated = ref false in
  for at = 1 to reference.Executor.instrs - 1 do
    let result, _, _ =
      Verify.run_with_crashes ~crash_at:[ at ] compiled
        (Recovery.machine compiled)
    in
    if
      List.length result.Executor.outputs.(0)
      > List.length reference.Executor.outputs.(0)
    then duplicated := true
  done;
  Alcotest.(check bool) "duplicates exist without the journal" true
    !duplicated

(* ---------------- profile-guided region formation ---------------- *)

let test_pgo_never_slower () =
  List.iter
    (fun name ->
      let k = W.Suite.by_name ~scale:4 name in
      let default = compile k.W.Kernel.program in
      let pgo = compile_pgo ~threads:k.W.Kernel.threads k.W.Kernel.program in
      let rd = run ~threads:k.W.Kernel.threads default in
      let rp = run ~threads:k.W.Kernel.threads pgo in
      Alcotest.(check bool)
        (Printf.sprintf "%s pgo %d <= default %d * 1.02" name
           rp.Executor.cycles rd.Executor.cycles)
        true
        (float_of_int rp.Executor.cycles
         <= 1.02 *. float_of_int rd.Executor.cycles))
    [ "541.leela_r"; "508.namd_r"; "ssca2"; "505.mcf_r" ]

let test_pgo_grows_long_unknown_loops () =
  (* A loop whose measured trip count (20) exceeds the static default
     factor: PGO must cover it with fewer, larger regions. *)
  let build () =
    let b = Builder.create () in
    let bound = Builder.alloc_init b [| 20 |] in
    let cell = Builder.alloc b ~words:1 in
    let f = Builder.func b "main" in
    let loop = Builder.block f "loop" in
    let body = Builder.block f "body" in
    let exit_ = Builder.block f "exit" in
    Builder.li f (r 8) bound;
    Builder.load f (r 9) ~base:(r 8) ();
    Builder.li f (r 1) 0;
    Builder.li f (r 3) cell;
    Builder.jump f loop;
    Builder.switch f loop;
    Builder.binop f Instr.Lt (r 2) (rg 1) (rg 9);
    Builder.branch f (rg 2) body exit_;
    Builder.switch f body;
    Builder.store f ~base:(r 3) (rg 1);
    Builder.add f (r 1) (rg 1) (im 1);
    Builder.jump f loop;
    Builder.switch f exit_;
    Builder.out f (rg 1);
    Builder.halt f;
    Builder.finish b ~main:"main"
  in
  let options =
    { Capri_compiler.Options.default with Capri_compiler.Options.unroll_max = 4 }
  in
  let default = Pipeline.compile options (build ()) in
  let pgo = compile_pgo ~options (build ()) in
  let boundaries c = (run c).Executor.boundaries in
  let bd = boundaries default and bp = boundaries pgo in
  Alcotest.(check bool)
    (Printf.sprintf "fewer dynamic boundaries (%d -> %d)" bd bp)
    true (bp < bd);
  (* and of course still correct + recoverable *)
  let base = run_volatile (build ()) in
  let result = run pgo in
  Alcotest.(check (list int)) "outputs" base.Executor.outputs.(0)
    result.Executor.outputs.(0);
  match crash_sweep ~stride:9 pgo with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "crash at %s: %s"
                 (String.concat "," (List.map string_of_int f.Verify.crash_at))
                 f.Verify.reason

let test_pgo_preserves_semantics () =
  List.iter
    (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let base = run_volatile program in
      let pgo = compile_pgo program in
      let result = run pgo in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d memory" seed)
        true
        (Memory.equal ~from:Builder.data_base base.Executor.memory
           result.Executor.memory);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d outputs" seed)
        true
        (base.Executor.outputs = result.Executor.outputs))
    [ 11; 222; 3333; 4444 ]

let suite =
  [
    Alcotest.test_case "journal: crash-free stream" `Quick
      test_journal_crash_free_matches;
    Alcotest.test_case "journal: exactly-once under crashes" `Quick
      test_journal_exactly_once_under_crashes;
    Alcotest.test_case "journal: double crash" `Quick test_journal_double_crash;
    Alcotest.test_case "baseline duplicates without journal" `Quick
      test_unjournaled_can_duplicate;
    Alcotest.test_case "pgo: never slower" `Quick test_pgo_never_slower;
    Alcotest.test_case "pgo: grows long unknown loops" `Quick
      test_pgo_grows_long_unknown_loops;
    Alcotest.test_case "pgo: preserves semantics" `Quick
      test_pgo_preserves_semantics;
  ]
