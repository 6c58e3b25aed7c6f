(* IR layer: registers, instructions, blocks, functions, builder,
   validator. *)

open Capri
open Helpers

let test_reg_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument "Reg.of_int: out of range")
    (fun () -> ignore (Reg.of_int (-1)));
  Alcotest.check_raises "too big" (Invalid_argument "Reg.of_int: out of range")
    (fun () -> ignore (Reg.of_int 32));
  Alcotest.(check int) "count" 32 Reg.count;
  Alcotest.(check int) "sp" 31 (Reg.to_int Reg.sp);
  Alcotest.(check int) "all" 32 (List.length Reg.all)

(* Both entry points: [eval_binop] (recovery blocks) and the [binop_fn]
   table the executor resolves each operator through at lowering. *)
let test_eval_binop () =
  let check name op a b expected =
    Alcotest.(check int) name expected (Instr.eval_binop op a b);
    Alcotest.(check int) (name ^ " (binop_fn)") expected (Instr.binop_fn op a b)
  in
  check "add" Instr.Add 3 4 7;
  check "sub" Instr.Sub 3 4 (-1);
  check "mul" Instr.Mul 3 4 12;
  check "div" Instr.Div 12 4 3;
  check "div0" Instr.Div 12 0 0;
  check "rem" Instr.Rem 13 4 1;
  check "rem0" Instr.Rem 13 0 0;
  check "and" Instr.And 12 10 8;
  check "or" Instr.Or 12 10 14;
  check "xor" Instr.Xor 12 10 6;
  check "shl" Instr.Shl 3 2 12;
  check "shr" Instr.Shr 12 2 3;
  check "shr-neg" Instr.Shr (-8) 1 (-4);
  check "shl-wrap" Instr.Shl 1 65 2;
  check "shr-wrap" Instr.Shr 256 66 64;
  check "div-neg" Instr.Div (-7) 2 (-3);
  check "rem-neg" Instr.Rem (-7) 2 (-1);
  check "lt" Instr.Lt 3 4 1;
  check "lt-eq" Instr.Lt 4 4 0;
  check "le" Instr.Le 4 4 1;
  check "le-gt" Instr.Le 5 4 0;
  check "eq" Instr.Eq 4 4 1;
  check "eq-ne" Instr.Eq 4 5 0;
  check "ne" Instr.Ne 4 4 0;
  check "ne-ne" Instr.Ne 4 5 1;
  check "min" Instr.Min 3 4 3;
  check "max" Instr.Max 3 4 4;
  check "min-neg" Instr.Min (-3) 4 (-3);
  check "max-neg" Instr.Max (-3) (-4) (-3)

let test_defs_uses () =
  let open Instr in
  let d i = Reg.Set.elements (defs i) |> List.map Reg.to_int in
  let u i = Reg.Set.elements (uses i) |> List.map Reg.to_int in
  let binop = Binop { op = Add; dst = r 1; a = Reg (r 2); b = Imm 3 } in
  Alcotest.(check (list int)) "binop defs" [ 1 ] (d binop);
  Alcotest.(check (list int)) "binop uses" [ 2 ] (u binop);
  let store = Store { base = r 4; offset = 0; src = Reg (r 5) } in
  Alcotest.(check (list int)) "store defs" [] (d store);
  Alcotest.(check (list int)) "store uses" [ 4; 5 ] (u store);
  let atomic =
    Atomic_rmw { op = Add; dst = r 1; base = r 2; offset = 0; src = Imm 1 }
  in
  Alcotest.(check (list int)) "atomic defs" [ 1 ] (d atomic);
  Alcotest.(check (list int)) "atomic uses" [ 2 ] (u atomic);
  let ckpt = Ckpt { reg = r 7; slot = 7 } in
  Alcotest.(check (list int)) "ckpt defs" [] (d ckpt);
  Alcotest.(check (list int)) "ckpt uses" [ 7 ] (u ckpt);
  Alcotest.(check bool) "store is store" true (is_store store);
  Alcotest.(check bool) "atomic is store" true (is_store atomic);
  Alcotest.(check bool) "ckpt is store" true (is_store ckpt);
  Alcotest.(check bool) "load not store" false
    (is_store (Load { dst = r 1; base = r 2; offset = 0 }));
  Alcotest.(check bool) "fence triggers" true (is_boundary_trigger Fence);
  Alcotest.(check bool) "atomic triggers" true (is_boundary_trigger atomic);
  Alcotest.(check bool) "store no trigger" false (is_boundary_trigger store)

let test_terminators () =
  let open Instr in
  let l1 = Label.of_string "a" and l2 = Label.of_string "b" in
  Alcotest.(check int) "jump succs" 1 (List.length (term_succs (Jump l1)));
  Alcotest.(check int) "branch succs" 2
    (List.length (term_succs (Branch { cond = Imm 1; if_true = l1; if_false = l2 })));
  Alcotest.(check int) "call succs" 1
    (List.length (term_succs (Call { callee = "f"; ret_to = l1 })));
  Alcotest.(check int) "ret succs" 0 (List.length (term_succs Ret));
  Alcotest.(check int) "call stores" 1
    (term_store_count (Call { callee = "f"; ret_to = l1 }));
  Alcotest.(check int) "jump stores" 0 (term_store_count (Jump l1))

let test_block_helpers () =
  let open Instr in
  let b =
    Block.create (Label.of_string "x")
      [
        Mov { dst = r 1; src = Imm 5 };
        Binop { op = Add; dst = r 2; a = Reg (r 1); b = Reg (r 3) };
        Store { base = r 2; offset = 0; src = Reg (r 1) };
        Ckpt { reg = r 2; slot = 2 };
      ]
      (Branch { cond = Reg (r 4); if_true = Label.of_string "x";
                if_false = Label.of_string "x" })
  in
  Alcotest.(check int) "store count" 2 (Block.store_count b);
  Alcotest.(check int) "instr count" 5 (Block.instr_count b);
  let ubd = Block.uses_before_def b |> Reg.Set.elements |> List.map Reg.to_int in
  Alcotest.(check (list int)) "uses before def" [ 3; 4 ] ubd;
  let defs = Block.defs b |> Reg.Set.elements |> List.map Reg.to_int in
  Alcotest.(check (list int)) "defs" [ 1; 2 ] defs

let test_split_block () =
  let program, _ = sum_program () in
  let f = Program.find_func program "main" in
  let body =
    List.find
      (fun (b : Block.t) -> List.length b.Block.instrs >= 3)
      (Func.blocks f)
  in
  let orig_label = body.Block.label in
  let orig_len = List.length body.Block.instrs in
  let new_label = Func.split_block f body ~at:1 in
  Alcotest.(check int) "prefix keeps 1" 1 (List.length body.Block.instrs);
  (match body.Block.term with
   | Instr.Jump l -> Alcotest.(check bool) "jumps to suffix" true (Label.equal l new_label)
   | _ -> Alcotest.fail "expected jump");
  let suffix = Func.find f new_label in
  Alcotest.(check int) "suffix has rest" (orig_len - 1)
    (List.length suffix.Block.instrs);
  Alcotest.(check bool) "labels differ" false (Label.equal orig_label new_label)

(* The layout after appends, inserts and splits interleaved with reads,
   against a list model; then the cost of appending: k blocks added to
   an n-block function and read back allocate O(n + k) words, not the
   O(k * n) of copying the layout per block. *)
let test_layout_order () =
  let l = Label.of_string in
  let mk name =
    Block.create (l name) [ Instr.Out (Instr.Imm 1); Instr.Out (Instr.Imm 2) ]
      Instr.Halt
  in
  let f = Func.create ~name:"main" ~entry:(l "entry") [ mk "a"; mk "entry" ] in
  let model = ref [ "entry"; "a" ] in
  let check what =
    Alcotest.(check (list string)) what !model
      (List.map (fun (b : Block.t) -> Label.to_string b.Block.label)
         (Func.blocks f))
  in
  let insert_model after name =
    model :=
      List.concat_map (fun x -> if x = after then [ x; name ] else [ x ]) !model
  in
  check "create puts the entry first";
  Func.add_block f (mk "b");
  Func.add_block f (mk "c");
  model := !model @ [ "b"; "c" ];
  check "two appends";
  let handed_out = Func.blocks f in
  Func.add_block f (mk "d");
  Func.insert_after f (l "c") (mk "c2");
  model := !model @ [ "d" ];
  insert_model "c" "c2";
  check "insert after a block appended before the last read";
  Alcotest.(check int) "a list handed out is untouched" 4
    (List.length handed_out);
  Func.add_block f (mk "e");
  Func.insert_after f (l "e") (mk "e2");
  model := !model @ [ "e" ];
  insert_model "e" "e2";
  Func.add_block f (mk "g");
  model := !model @ [ "g" ];
  let split = Func.split_block f (Func.find f (l "g")) ~at:1 in
  insert_model "g" (Label.to_string split);
  Func.add_block f (mk "h");
  let split = Func.split_block f (Func.find f (l "a")) ~at:0 in
  model := !model @ [ "h" ];
  insert_model "a" (Label.to_string split);
  check "splits and inserts between appends, read once at the end";
  check "a second read";
  let grow k =
    let f = Func.create ~name:"main" ~entry:(l "entry") [ mk "entry" ] in
    let blocks = List.init k (fun i -> mk ("x" ^ string_of_int i)) in
    let w0 = Gc.minor_words () in
    List.iter (Func.add_block f) blocks;
    ignore (Func.blocks f);
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) "every block listed" (k + 1)
      (List.length (Func.blocks f));
    words /. float_of_int k
  in
  let per_block = grow 2000 in
  if per_block > 50. then
    Alcotest.failf "appending 2000 blocks: %.1f words per block" per_block

let test_validate_catches () =
  let open Instr in
  let dangling =
    Func.create ~name:"main" ~entry:(Label.of_string "entry")
      [ Block.create (Label.of_string "entry") [] (Jump (Label.of_string "nope")) ]
  in
  let p = Program.create ~funcs:[ dangling ] ~main:"main" ~data:[] () in
  (match Validate.check p with
   | Error [ e ] ->
     Alcotest.(check string) "func" "main" e.Validate.func
   | Error _ | Ok () -> Alcotest.fail "expected one error");
  let bad_call =
    Func.create ~name:"main" ~entry:(Label.of_string "entry")
      [ Block.create (Label.of_string "entry") []
          (Call { callee = "ghost"; ret_to = Label.of_string "entry" }) ]
  in
  let p2 = Program.create ~funcs:[ bad_call ] ~main:"main" ~data:[] () in
  (match Validate.check p2 with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "undefined callee accepted");
  let no_main = Program.create ~funcs:[] ~main:"main" ~data:[] () in
  (match Validate.check no_main with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "missing main accepted")

let test_builder_errors () =
  let b = Builder.create () in
  let f = Builder.func b "main" in
  Builder.halt f;
  (* Emitting without an open block must fail. *)
  (try
     Builder.li f (r 0) 1;
     Alcotest.fail "emit into closed block accepted"
   with Invalid_argument _ -> ());
  (* Unfilled declared blocks must fail at finish. *)
  let b2 = Builder.create () in
  let f2 = Builder.func b2 "main" in
  let _orphan = Builder.block f2 "orphan" in
  Builder.halt f2;
  (try
     ignore (Builder.finish b2 ~main:"main");
     Alcotest.fail "unfilled block accepted"
   with Invalid_argument _ -> ())

let test_builder_data () =
  let b = Builder.create () in
  let a1 = Builder.alloc b ~words:3 in
  let a2 = Builder.alloc b ~words:1 in
  Alcotest.(check bool) "line padded" true (a2 - a1 >= 8);
  Alcotest.(check int) "base" Builder.data_base a1;
  let init = Builder.alloc_init b [| 7; 8; 9 |] in
  let f = Builder.func b "main" in
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  Alcotest.(check int) "init words" 3
    (List.length
       (List.filter (fun (a, _) -> a >= init && a < init + 3)
          program.Program.data))

let test_program_copy_isolated () =
  let program, _ = sum_program () in
  let copy = Pipeline.copy_program program in
  let compiled = compile copy in
  (* Compilation of the copy must not leak into the original: the
     original still has no boundaries. *)
  ignore compiled;
  let f = Program.find_func program "main" in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun i ->
          match (i : Instr.t) with
          | Instr.Boundary _ | Instr.Ckpt _ ->
            Alcotest.fail "compilation mutated the source program"
          | _ -> ())
        b.Block.instrs)
    (Func.blocks f)

let suite =
  [
    Alcotest.test_case "register bounds" `Quick test_reg_bounds;
    Alcotest.test_case "binop evaluation" `Quick test_eval_binop;
    Alcotest.test_case "defs and uses" `Quick test_defs_uses;
    Alcotest.test_case "terminators" `Quick test_terminators;
    Alcotest.test_case "block helpers" `Quick test_block_helpers;
    Alcotest.test_case "split block" `Quick test_split_block;
    Alcotest.test_case "layout order" `Quick test_layout_order;
    Alcotest.test_case "validator catches errors" `Quick test_validate_catches;
    Alcotest.test_case "builder misuse" `Quick test_builder_errors;
    Alcotest.test_case "builder data segment" `Quick test_builder_data;
    Alcotest.test_case "copy isolation" `Quick test_program_copy_isolated;
  ]
