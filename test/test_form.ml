(* Region formation: boundary placement, threshold bounds, single-entry
   regions, mandatory heads, loop absorption. *)

open Capri
open Helpers
module Region_map = Capri_compiler.Region_map
module Form = Capri_compiler.Form
module Opt = Capri_compiler.Options

let compile_with options program =
  Pipeline.compile options (Pipeline.copy_program program)

let starts_with_boundary (b : Block.t) =
  match b.Block.instrs with
  | Instr.Boundary _ :: _ -> true
  | _ -> false

let boundary_blocks f =
  List.filter starts_with_boundary (Func.blocks f)

(* Structural invariants every compiled program must satisfy. *)
let check_invariants (compiled : Compiled.t) =
  let program = compiled.Compiled.program in
  let map = compiled.Compiled.regions in
  List.iter
    (fun f ->
      let fname = Func.name f in
      (* 1. Function entries have boundaries. *)
      Alcotest.(check bool)
        (fname ^ " entry boundary") true
        (starts_with_boundary (Func.find f (Func.entry f)));
      List.iter
        (fun (b : Block.t) ->
          let id = Region_map.region_of_block map ~func:fname b.Block.label in
          let region = Region_map.find map id in
          (* 2. The boundary id matches the region id and only heads carry
                boundaries. *)
          if starts_with_boundary b then begin
            (match b.Block.instrs with
             | Instr.Boundary { id = bid } :: _ ->
               Alcotest.(check int) "boundary id = region id" id bid
             | _ -> assert false);
            Alcotest.(check bool) "boundary at head" true
              (Label.equal b.Block.label region.Region_map.head)
          end;
          (* 3. Boundaries appear nowhere else. *)
          List.iteri
            (fun i instr ->
              match (instr : Instr.t) with
              | Instr.Boundary _ when i > 0 ->
                Alcotest.fail "boundary not at block start"
              | _ -> ())
            b.Block.instrs;
          (* 4. Single entry: a non-head block is only reachable from its
                own region. *)
          if not (Label.equal b.Block.label region.Region_map.head) then begin
            List.iter
              (fun (p : Block.t) ->
                if List.mem b.Block.label (Instr.term_succs p.Block.term)
                then
                  Alcotest.(check int)
                    (Printf.sprintf "pred of interior %s"
                       (Label.to_string b.Block.label))
                    id
                    (Region_map.region_of_block map ~func:fname p.Block.label))
              (Func.blocks f)
          end;
          (* 5. Fences/atomics start regions. *)
          match b.Block.instrs with
          | first :: _
            when Instr.is_boundary_trigger first
                 && not (Label.equal b.Block.label region.Region_map.head) ->
            Alcotest.fail "trigger inside a region"
          | _ -> ())
        (Func.blocks f))
    program.Program.funcs;
  (* 6. Static bounds respect the threshold. *)
  Alcotest.(check bool) "bounds within threshold" true
    (Region_map.max_store_bound map
     <= compiled.Compiled.options.Opt.threshold)

let test_invariants_sum () =
  let program, _ = sum_program ~n:30 () in
  check_invariants (compile_with Capri_compiler.Options.default program)

let test_invariants_fib () =
  check_invariants
    (compile_with Capri_compiler.Options.default (fib_program ~n:8 ()))

let test_invariants_mixed () =
  let program, _, _ = mixed_program ~n:12 () in
  check_invariants (compile_with Capri_compiler.Options.default program)

let test_invariants_small_threshold () =
  let program, _, _ = mixed_program ~n:12 () in
  check_invariants
    (compile_with
       (Capri_compiler.Options.with_threshold 8 Capri_compiler.Options.default)
       program)

let test_ret_target_has_boundary () =
  let compiled =
    compile_with Capri_compiler.Options.default (fib_program ~n:6 ())
  in
  let program = compiled.Compiled.program in
  List.iter
    (fun f ->
      List.iter
        (fun (b : Block.t) ->
          match b.Block.term with
          | Instr.Call { ret_to; _ } ->
            Alcotest.(check bool) "call continuation boundary" true
              (starts_with_boundary (Func.find f ret_to))
          | _ -> ())
        (Func.blocks f))
    program.Program.funcs

let test_loop_header_boundary_unknown_trip () =
  (* Unknown trip count, no unrolling: the loop header must be a region
     head. *)
  let b = Builder.create () in
  let cell = Builder.alloc b ~words:1 in
  let f = Builder.func b "main" in
  let header = Builder.block f "header" in
  let body = Builder.block f "body" in
  let exit_ = Builder.block f "exit" in
  Builder.li f (r 1) 0;
  Builder.li f (r 9) 13;
  Builder.li f (r 8) cell;
  Builder.jump f header;
  Builder.switch f header;
  Builder.binop f Instr.Lt (r 2) (rg 1) (rg 9);
  Builder.branch f (rg 2) body exit_;
  Builder.switch f body;
  Builder.store f ~base:(r 8) (rg 1);
  Builder.add f (r 1) (rg 1) (im 1);
  Builder.jump f header;
  Builder.switch f exit_;
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  let compiled =
    compile_with
      { Capri_compiler.Options.default with Capri_compiler.Options.unroll = false }
      program
  in
  let mf = Program.find_func compiled.Compiled.program "main" in
  let headers =
    List.filter
      (fun (bl : Block.t) ->
        let s = Label.to_string bl.Block.label in
        String.length s >= 6 && String.sub s 0 6 = "header")
      (Func.blocks mf)
  in
  Alcotest.(check bool) "found header" true (headers <> []);
  List.iter
    (fun h ->
      Alcotest.(check bool) "header has boundary" true
        (starts_with_boundary h))
    headers

let test_absorption_known_trip () =
  (* A counted loop with few stores fits inside one region: no boundary
     at its header. *)
  let program, _ = sum_program ~n:10 () in
  let compiled = compile_with Capri_compiler.Options.default program in
  Alcotest.(check int) "one region for main" 1
    (Region_map.region_count compiled.Compiled.regions);
  (* And with absorption off, the loop header gets its boundary back. *)
  let compiled' =
    compile_with
      { Capri_compiler.Options.default with
        Capri_compiler.Options.absorb_loops = false }
      program
  in
  Alcotest.(check bool) "several regions without absorption" true
    (Region_map.region_count compiled'.Compiled.regions > 1)

let test_absorption_respects_threshold () =
  (* 100 iterations x 1 store with threshold 16: the loop must NOT be
     absorbed. *)
  let program, _ = sum_program ~n:100 () in
  let compiled =
    compile_with
      (Capri_compiler.Options.with_threshold 16 Capri_compiler.Options.default)
      program
  in
  Alcotest.(check bool) "loop kept separate" true
    (Region_map.region_count compiled.Compiled.regions > 1)

let test_dynamic_threshold_enforced () =
  (* The executor's dynamic check is the authoritative invariant. *)
  List.iter
    (fun threshold ->
      let program, _, _ = mixed_program ~n:20 () in
      let options =
        Capri_compiler.Options.with_threshold threshold
          Capri_compiler.Options.default
      in
      let compiled = compile_with options program in
      let config = Config.with_threshold threshold Config.sim_default in
      (* run asserts stores-per-region <= threshold internally *)
      ignore (run ~config compiled))
    [ 8; 32; 256 ]

let test_big_block_chunked () =
  (* A basic block with more stores than the threshold must be split. *)
  let b = Builder.create () in
  let arr = Builder.alloc b ~words:64 in
  let f = Builder.func b "main" in
  Builder.li f (r 1) arr;
  for i = 0 to 63 do
    Builder.store f ~base:(r 1) ~off:i (im i)
  done;
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  let options =
    Capri_compiler.Options.with_threshold 16 Capri_compiler.Options.default
  in
  let compiled = compile_with options program in
  Alcotest.(check bool) "chunked into regions" true
    (Region_map.region_count compiled.Compiled.regions >= 4);
  let config = Config.with_threshold 16 Config.sim_default in
  let result = run ~config compiled in
  Alcotest.(check int) "all stores ran" 64 result.Executor.stores

let suite =
  [
    Alcotest.test_case "invariants: sum" `Quick test_invariants_sum;
    Alcotest.test_case "invariants: fib" `Quick test_invariants_fib;
    Alcotest.test_case "invariants: mixed" `Quick test_invariants_mixed;
    Alcotest.test_case "invariants: threshold 8" `Quick
      test_invariants_small_threshold;
    Alcotest.test_case "call continuations get boundaries" `Quick
      test_ret_target_has_boundary;
    Alcotest.test_case "unknown-trip headers get boundaries" `Quick
      test_loop_header_boundary_unknown_trip;
    Alcotest.test_case "known-trip loops absorbed" `Quick
      test_absorption_known_trip;
    Alcotest.test_case "absorption respects threshold" `Quick
      test_absorption_respects_threshold;
    Alcotest.test_case "dynamic threshold enforced" `Quick
      test_dynamic_threshold_enforced;
    Alcotest.test_case "oversized blocks chunked" `Quick test_big_block_chunked;
  ]

let test_storeless_program () =
  (* A program with no stores at all: pure regions everywhere, and the
     persistence machinery must be nearly silent. *)
  let b = Builder.create () in
  let f = Builder.func b "main" in
  Builder.li f (r 1) 1;
  Builder.add f (r 1) (rg 1) (im 41);
  Builder.out f (rg 1);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  let compiled = compile_with Capri_compiler.Options.default program in
  let result = run compiled in
  Alcotest.(check int) "no entries"
    0 result.Executor.persist_stats.Persist.entries_created;
  match crash_sweep ~stride:1 compiled with
  | Ok _ -> ()
  | Error fl -> Alcotest.failf "crash: %s" fl.Verify.reason

let test_deep_recursion_regions () =
  (* Deep call chains: every frame pushes through the persistence path
     and the region map must stay consistent. *)
  let program = Helpers.fib_program ~n:12 () in
  let compiled = compile_with Capri_compiler.Options.default program in
  check_invariants compiled;
  let result = run compiled in
  Alcotest.(check (list int)) "fib 12" [ 144 ] result.Executor.outputs.(0)

let test_two_functions_same_shapes () =
  (* Two functions with identical label names: region ids must stay
     globally unique and lookups must not cross-talk. *)
  let b = Builder.create () in
  let mk name =
    let f = Builder.func b name in
    let loop = Builder.block f "loop" in
    let body = Builder.block f "body" in
    let exit_ = Builder.block f "exit" in
    Builder.li f (r 1) 0;
    Builder.jump f loop;
    Builder.switch f loop;
    Builder.binop f Instr.Lt (r 2) (rg 1) (im 4);
    Builder.branch f (rg 2) body exit_;
    Builder.switch f body;
    Builder.add f (r 1) (rg 1) (im 1);
    Builder.jump f loop;
    Builder.switch f exit_;
    if name = "main" then begin
      Builder.call_cont f "aux";
      Builder.out f (rg 1);
      Builder.halt f
    end
    else Builder.ret f
  in
  mk "aux";
  mk "main";
  let program = Builder.finish b ~main:"main" in
  let compiled = compile_with Capri_compiler.Options.default program in
  check_invariants compiled;
  (* globally unique region ids across both functions *)
  let ids =
    List.map (fun (rg : Region_map.region) -> rg.Region_map.id)
      (Region_map.regions compiled.Compiled.regions)
  in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let suite =
  suite
  @ [
      Alcotest.test_case "storeless program" `Quick test_storeless_program;
      Alcotest.test_case "deep recursion" `Quick test_deep_recursion_regions;
      Alcotest.test_case "duplicate labels across functions" `Quick
        test_two_functions_same_shapes;
    ]
