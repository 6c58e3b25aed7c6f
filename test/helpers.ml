(* Shared test scaffolding: tiny programs built with the Builder DSL and
   assertions used across suites. *)

open Capri

let r = Reg.of_int
let rg i = Builder.reg (r i)
let im = Builder.imm

(* A shipped example file, from wherever the suites run: [dune runtest]
   runs them in _build/default/test, beside the copy the test's deps put
   in ../examples, and a [dune exec test/main.exe] from the repository
   root finds examples/ below it. *)
let example_path name =
  let beside = Filename.concat "../examples" name in
  if Sys.file_exists beside then beside else Filename.concat "examples" name

(* sum of 0..n-1 stored into memory, then read back and emitted. *)
let sum_program ?(n = 10) () =
  let b = Builder.create () in
  let cell = Builder.alloc b ~words:1 in
  let f = Builder.func b "main" in
  let loop = Builder.block f "loop" in
  let body = Builder.block f "body" in
  let exit_ = Builder.block f "exit" in
  Builder.li f (r 1) 0;  (* i *)
  Builder.li f (r 2) 0;  (* acc *)
  Builder.li f (r 3) cell;
  Builder.jump f loop;
  Builder.switch f loop;
  Builder.binop f Instr.Lt (r 4) (rg 1) (im n);
  Builder.branch f (rg 4) body exit_;
  Builder.switch f body;
  Builder.add f (r 2) (rg 2) (rg 1);
  Builder.store f ~base:(r 3) (rg 2);
  Builder.add f (r 1) (rg 1) (im 1);
  Builder.jump f loop;
  Builder.switch f exit_;
  Builder.load f (r 5) ~base:(r 3) ();
  Builder.out f (rg 5);
  Builder.halt f;
  (Builder.finish b ~main:"main", cell)

(* Fibonacci via recursive calls with explicit spills. *)
let fib_program ?(n = 10) () =
  let b = Builder.create () in
  let f = Builder.func b "fib" in
  let base = Builder.block f "base" in
  let rec_ = Builder.block f "rec" in
  Builder.binop f Instr.Lt (r 4) (rg 0) (im 2);
  Builder.branch f (rg 4) base rec_;
  Builder.switch f base;
  Builder.ret f;
  Builder.switch f rec_;
  (* fib(n-1) with n spilled *)
  Builder.sub f (r 0) (rg 0) (im 1);
  Builder.sub f Reg.sp (Builder.reg Reg.sp) (im 2);
  Builder.store f ~base:Reg.sp ~off:0 (rg 0);  (* n-1 *)
  Builder.call_cont f "fib";
  Builder.store f ~base:Reg.sp ~off:1 (rg 0);  (* fib(n-1) *)
  Builder.load f (r 1) ~base:Reg.sp ~off:0 ();
  Builder.sub f (r 0) (rg 1) (im 1);  (* n-2 *)
  Builder.call_cont f "fib";
  Builder.load f (r 2) ~base:Reg.sp ~off:1 ();
  Builder.add f (r 0) (rg 0) (rg 2);
  Builder.add f Reg.sp (Builder.reg Reg.sp) (im 2);
  Builder.ret f;
  let m = Builder.func b "main" in
  Builder.li m (r 0) n;
  Builder.call_cont m "fib";
  Builder.out m (rg 0);
  Builder.halt m;
  Builder.finish b ~main:"main"

(* Array kernel exercising fences, atomics and stores. *)
let mixed_program ?(n = 24) () =
  let b = Builder.create () in
  let arr = Builder.alloc b ~words:n in
  let counter = Builder.alloc b ~words:1 in
  let f = Builder.func b "main" in
  let loop = Builder.block f "loop" in
  let body = Builder.block f "body" in
  let exit_ = Builder.block f "exit" in
  Builder.li f (r 1) 0;
  Builder.li f (r 2) arr;
  Builder.li f (r 3) counter;
  Builder.jump f loop;
  Builder.switch f loop;
  Builder.binop f Instr.Lt (r 4) (rg 1) (im n);
  Builder.branch f (rg 4) body exit_;
  Builder.switch f body;
  Builder.add f (r 5) (rg 2) (rg 1);
  Builder.mul f (r 6) (rg 1) (rg 1);
  Builder.store f ~base:(r 5) (rg 6);
  Builder.atomic_rmw f Instr.Add (r 7) ~base:(r 3) (im 1);
  Builder.fence f;
  Builder.add f (r 1) (rg 1) (im 1);
  Builder.jump f loop;
  Builder.switch f exit_;
  Builder.load f (r 8) ~base:(r 3) ();
  Builder.out f (rg 8);
  Builder.halt f;
  (Builder.finish b ~main:"main", arr, counter)

let check_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let expect_outputs result core expected =
  Alcotest.(check (list int))
    (Printf.sprintf "outputs core %d" core)
    expected result.Executor.outputs.(core)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Reference interprocedural liveness, independent of Inter_liveness: a
   round-robin fixpoint over every instruction of the program with the
   Call/Ret rules inter_liveness.mli states. The live-out of a Call block
   is the live-in of its return block plus the callee's entry live-in; the
   live-out of a Ret block is r0 plus the live-in of every continuation
   of a call to its function; a Halt block has nothing live after it. *)
let reference_liveness (program : Program.t) =
  let live_in = Hashtbl.create 64 in
  let get name l =
    Option.value ~default:Reg.Set.empty (Hashtbl.find_opt live_in (name, l))
  in
  let entry_in callee =
    match List.find_opt (fun f -> Func.name f = callee) program.Program.funcs with
    | Some f -> get callee (Func.entry f)
    | None -> Reg.Set.empty
  in
  let ret_out name =
    List.fold_left
      (fun acc f ->
        List.fold_left
          (fun acc (b : Block.t) ->
            match b.Block.term with
            | Instr.Call { callee; ret_to } when callee = name ->
              Reg.Set.union acc (get (Func.name f) ret_to)
            | Instr.Call _ | Instr.Jump _ | Instr.Branch _ | Instr.Ret
            | Instr.Halt ->
              acc)
          acc (Func.blocks f))
      (Reg.Set.singleton (r 0)) program.Program.funcs
  in
  let live_out f (b : Block.t) =
    match b.Block.term with
    | Instr.Ret -> ret_out (Func.name f)
    | Instr.Halt -> Reg.Set.empty
    | Instr.Call { callee; ret_to } ->
      Reg.Set.union (get (Func.name f) ret_to) (entry_in callee)
    | Instr.Jump _ | Instr.Branch _ ->
      List.fold_left
        (fun acc s -> Reg.Set.union acc (get (Func.name f) s))
        Reg.Set.empty (Instr.term_succs b.Block.term)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        List.iter
          (fun (b : Block.t) ->
            let before =
              List.fold_right
                (fun i live ->
                  Reg.Set.union (Instr.uses i)
                    (Reg.Set.diff live (Instr.defs i)))
                b.Block.instrs
                (Reg.Set.union (live_out f b) (Instr.term_uses b.Block.term))
            in
            if not (Reg.Set.equal before (get (Func.name f) b.Block.label))
            then begin
              Hashtbl.replace live_in (Func.name f, b.Block.label) before;
              changed := true
            end)
          (Func.blocks f))
      program.Program.funcs
  done;
  (fun f l -> get (Func.name f) l), live_out, ret_out

(* The first block (or function) where Inter_liveness disagrees with
   {!reference_liveness}, if any. *)
let liveness_mismatch (program : Program.t) =
  let live = Inter_liveness.compute program in
  let ref_in, ref_out, ref_ret = reference_liveness program in
  let show s =
    String.concat "," (List.map Reg.to_string (Reg.Set.elements s))
  in
  let differs what expected got =
    if Reg.Set.equal expected got then None
    else Some (Printf.sprintf "%s: expected {%s}, got {%s}" what
                 (show expected) (show got))
  in
  List.find_map
    (fun f ->
      let name = Func.name f in
      match
        differs (name ^ " ret_live_out") (ref_ret name)
          (Inter_liveness.ret_live_out live name)
      with
      | Some _ as m -> m
      | None ->
        List.find_map
          (fun (b : Block.t) ->
            let at = name ^ "/" ^ Label.to_string b.Block.label in
            match
              differs (at ^ " live_in") (ref_in f b.Block.label)
                (Inter_liveness.live_in live f b.Block.label)
            with
            | Some _ as m -> m
            | None ->
              differs (at ^ " live_out") (ref_out f b)
                (Inter_liveness.live_out live f b.Block.label))
          (Func.blocks f))
    program.Program.funcs
