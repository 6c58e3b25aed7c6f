(* Shared test scaffolding: tiny programs built with the Builder DSL and
   assertions used across suites. *)

open Capri

let r = Reg.of_int
let rg i = Builder.reg (r i)
let im = Builder.imm

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
