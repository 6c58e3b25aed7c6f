(* Dataflow analyses: liveness (intra and interprocedural), dominators,
   natural loops, static trip counts. *)

open Capri
open Helpers

let lbl = Label.of_string

(* diamond: entry -> (left | right) -> join(ret) *)
let diamond () =
  let open Instr in
  Func.create ~name:"main" ~entry:(lbl "entry")
    [
      Block.create (lbl "entry")
        [ Mov { dst = r 1; src = Imm 1 } ]
        (Branch { cond = Reg (r 1); if_true = lbl "left"; if_false = lbl "right" });
      Block.create (lbl "left")
        [ Binop { op = Add; dst = r 2; a = Reg (r 1); b = Imm 1 } ]
        (Jump (lbl "join"));
      Block.create (lbl "right")
        [ Mov { dst = r 2; src = Imm 9 };
          Mov { dst = r 3; src = Reg (r 2) } ]
        (Jump (lbl "join"));
      Block.create (lbl "join")
        [ Out (Reg (r 2)) ]
        Halt;
    ]

(* The diamond as a one-function program: its join ends in Halt, so the
   interprocedural rules add nothing and the sets are the intraprocedural
   ones. *)
let diamond_liveness () =
  let f = diamond () in
  let program = Program.create ~funcs:[ f ] ~main:"main" ~data:[] () in
  (f, Inter_liveness.compute program)

let test_liveness_diamond () =
  let f, live = diamond_liveness () in
  let li l =
    Inter_liveness.live_in live f (lbl l) |> Reg.Set.elements
    |> List.map Reg.to_int
  in
  Alcotest.(check (list int)) "entry live-in" [] (li "entry");
  Alcotest.(check (list int)) "left live-in" [ 1 ] (li "left");
  Alcotest.(check (list int)) "right live-in" [] (li "right");
  Alcotest.(check (list int)) "join live-in" [ 2 ] (li "join");
  let lo =
    Inter_liveness.live_out live f (lbl "entry") |> Reg.Set.elements
    |> List.map Reg.to_int
  in
  Alcotest.(check (list int)) "entry live-out" [ 1 ] lo

let test_liveness_per_instr () =
  let f, live = diamond_liveness () in
  let b = Func.find f (lbl "right") in
  let arr = Inter_liveness.live_before_instrs live f b in
  Alcotest.(check int) "array length" 3 (Array.length arr);
  (* before `r3 = r2`: r2 live *)
  Alcotest.(check bool) "r2 live before use" true
    (Reg.Set.mem (r 2) arr.(1));
  (* before `r2 = 9`: r2 dead *)
  Alcotest.(check bool) "r2 dead before def" false
    (Reg.Set.mem (r 2) arr.(0))

let test_inter_liveness_call () =
  (* callee uses r5 (argument); caller must see r5 live across the call
     edge even though the caller never reads it. *)
  let b = Builder.create () in
  let callee = Builder.func b "callee" in
  Builder.add callee (r 0) (rg 5) (im 1);
  Builder.ret callee;
  let m = Builder.func b "main" in
  Builder.li m (r 5) 42;
  Builder.call_cont m "callee";
  Builder.out m (rg 0);
  Builder.halt m;
  let program = Builder.finish b ~main:"main" in
  let live = Inter_liveness.compute program in
  Alcotest.(check bool) "callee entry needs r5" true
    (Reg.Set.mem (r 5) (Inter_liveness.entry_live_in live "callee"));
  let mf = Program.find_func program "main" in
  let call_block =
    List.find
      (fun (bl : Block.t) ->
        match bl.Block.term with Instr.Call _ -> true | _ -> false)
      (Func.blocks mf)
  in
  Alcotest.(check bool) "r5 live out of call block" true
    (Reg.Set.mem (r 5) (Inter_liveness.live_out live mf call_block.Block.label))

let test_inter_liveness_ret_convention () =
  let program = fib_program ~n:3 () in
  let live = Inter_liveness.compute program in
  let f = Program.find_func program "fib" in
  let ret_blocks =
    List.filter
      (fun (bl : Block.t) -> bl.Block.term = Instr.Ret)
      (Func.blocks f)
  in
  Alcotest.(check bool) "has ret blocks" true (ret_blocks <> []);
  List.iter
    (fun (bl : Block.t) ->
      Alcotest.(check bool) "r0 live at ret" true
        (Reg.Set.mem (r 0) (Inter_liveness.live_out live f bl.Block.label)))
    ret_blocks

let loopy () =
  (* entry -> header; header -> body|exit; body -> header *)
  let open Instr in
  Func.create ~name:"main" ~entry:(lbl "entry")
    [
      Block.create (lbl "entry") [ Mov { dst = r 1; src = Imm 0 } ]
        (Jump (lbl "header"));
      Block.create (lbl "header")
        [ Binop { op = Lt; dst = r 2; a = Reg (r 1); b = Imm 10 } ]
        (Branch { cond = Reg (r 2); if_true = lbl "body"; if_false = lbl "exit" });
      Block.create (lbl "body")
        [ Binop { op = Add; dst = r 1; a = Reg (r 1); b = Imm 1 } ]
        (Jump (lbl "header"));
      Block.create (lbl "exit") [] Halt;
    ]

let test_dominators () =
  let f = loopy () in
  let dom = Dom.compute (Cfg.of_func f) in
  Alcotest.(check bool) "entry doms header" true
    (Dom.dominates dom (lbl "entry") (lbl "header"));
  Alcotest.(check bool) "header doms body" true
    (Dom.dominates dom (lbl "header") (lbl "body"));
  Alcotest.(check bool) "body not dom exit" false
    (Dom.dominates dom (lbl "body") (lbl "exit"));
  Alcotest.(check bool) "self dom" true
    (Dom.dominates dom (lbl "body") (lbl "body"));
  (match Dom.idom dom (lbl "body") with
   | Some l -> Alcotest.(check string) "idom body" "header" (Label.to_string l)
   | None -> Alcotest.fail "body needs idom");
  (match Dom.idom dom (lbl "entry") with
   | None -> ()
   | Some _ -> Alcotest.fail "entry has no idom")

(* entry -> exit, plus a cycle a <-> b that leaves to exit but that no
   reachable block enters. *)
let unreachable_cycle () =
  let open Instr in
  Func.create ~name:"main" ~entry:(lbl "entry")
    [
      Block.create (lbl "entry") [] (Jump (lbl "exit"));
      Block.create (lbl "a") [] (Jump (lbl "b"));
      Block.create (lbl "b")
        [ Mov { dst = r 1; src = Imm 0 } ]
        (Branch { cond = Reg (r 1); if_true = lbl "a"; if_false = lbl "exit" });
      Block.create (lbl "exit") [] Halt;
    ]

let test_dominators_unreachable () =
  let f = unreachable_cycle () in
  let dom = Dom.compute (Cfg.of_func f) in
  let doms l =
    Dom.dominators dom (lbl l) |> Label.Set.elements
    |> List.map Label.to_string
  in
  let idom l = Option.map Label.to_string (Dom.idom dom (lbl l)) in
  Alcotest.(check (list string)) "entry" [ "entry" ] (doms "entry");
  Alcotest.(check (list string)) "exit: the unreachable b does not count"
    [ "entry"; "exit" ] (doms "exit");
  Alcotest.(check (list string)) "a dominates itself only" [ "a" ] (doms "a");
  Alcotest.(check (list string)) "b dominates itself only" [ "b" ] (doms "b");
  Alcotest.(check (option string)) "idom exit" (Some "entry") (idom "exit");
  Alcotest.(check (option string)) "idom entry" None (idom "entry");
  Alcotest.(check (option string)) "idom a" None (idom "a");
  Alcotest.(check (option string)) "idom b" None (idom "b");
  Alcotest.(check int) "no loops: b -> exit is no back edge" 0
    (List.length (Loops.loops (Loops.compute (Cfg.of_func f))))

let test_loops () =
  let f = loopy () in
  let loops = Loops.compute (Cfg.of_func f) in
  Alcotest.(check int) "one loop" 1 (List.length (Loops.loops loops));
  let loop = List.hd (Loops.loops loops) in
  Alcotest.(check string) "header" "header" (Label.to_string loop.Loops.header);
  Alcotest.(check int) "body size" 2 (Label.Set.cardinal loop.Loops.body);
  Alcotest.(check bool) "simple" true (Loops.is_simple loops loop);
  Alcotest.(check int) "depth" 1 loop.Loops.depth

let test_trip_count_known () =
  let f = loopy () in
  let loops = Loops.compute (Cfg.of_func f) in
  let loop = List.hd (Loops.loops loops) in
  Alcotest.(check (option int)) "trip count 10" (Some 10)
    (Loops.static_trip_count f loop)

let test_trip_count_unknown () =
  (* bound in a register: unknown *)
  let b = Builder.create () in
  let f = Builder.func b "main" in
  let header = Builder.block f "header" in
  let body = Builder.block f "body" in
  let exit_ = Builder.block f "exit" in
  Builder.li f (r 1) 0;
  Builder.li f (r 9) 10;
  Builder.jump f header;
  Builder.switch f header;
  Builder.binop f Instr.Lt (r 2) (rg 1) (rg 9);
  Builder.branch f (rg 2) body exit_;
  Builder.switch f body;
  Builder.add f (r 1) (rg 1) (im 1);
  Builder.jump f header;
  Builder.switch f exit_;
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  let mf = Program.find_func program "main" in
  let loops = Loops.compute (Cfg.of_func mf) in
  let loop = List.hd (Loops.loops loops) in
  Alcotest.(check (option int)) "unknown" None
    (Loops.static_trip_count mf loop)

let test_nested_loops () =
  let program, _, _ = mixed_program () in
  ignore program;
  (* build a two-level nest with the builder *)
  let b = Builder.create () in
  let f = Builder.func b "main" in
  let oh = Builder.block f "outer.h" in
  let ob = Builder.block f "outer.b" in
  let ih = Builder.block f "inner.h" in
  let ib = Builder.block f "inner.b" in
  let ox = Builder.block f "outer.x" in
  Builder.li f (r 1) 0;
  Builder.jump f oh;
  Builder.switch f oh;
  Builder.binop f Instr.Lt (r 2) (rg 1) (im 5);
  Builder.branch f (rg 2) ob ox;
  Builder.switch f ob;
  Builder.li f (r 3) 0;
  Builder.jump f ih;
  Builder.switch f ih;
  Builder.binop f Instr.Lt (r 4) (rg 3) (im 7);
  Builder.branch f (rg 4) ib oh;  (* inner exit goes to outer header *)
  Builder.switch f ib;
  Builder.add f (r 3) (rg 3) (im 1);
  Builder.jump f ih;
  Builder.switch f ox;
  Builder.halt f;
  (* wait: outer latch — the inner exit edge ih->oh must also increment;
     keep it simple: this still forms two natural loops. *)
  let program = Builder.finish b ~main:"main" in
  let mf = Program.find_func program "main" in
  let loops = Loops.compute (Cfg.of_func mf) in
  Alcotest.(check int) "two loops" 2 (List.length (Loops.loops loops));
  let has_prefix p s = String.length s >= String.length p
                       && String.sub s 0 (String.length p) = p in
  let inner =
    List.find
      (fun (l : Loops.loop) ->
        has_prefix "inner.h" (Label.to_string l.Loops.header))
      (Loops.loops loops)
  in
  Alcotest.(check int) "inner depth" 2 inner.Loops.depth;
  (* innermost-first ordering *)
  let first = List.hd (Loops.loops loops) in
  Alcotest.(check int) "deepest first" 2 first.Loops.depth

(* Interprocedural liveness on every kernel, before and after the full
   pipeline, equals the per-instruction reference fixpoint. *)
let test_inter_liveness_kernels () =
  List.iter
    (fun (k : Capri_workloads.Kernel.t) ->
      let name = k.Capri_workloads.Kernel.name in
      let source = k.Capri_workloads.Kernel.program in
      Alcotest.(check (option string)) (name ^ " source") None
        (liveness_mismatch source);
      Alcotest.(check (option string)) (name ^ " compiled") None
        (liveness_mismatch (compile source).Compiled.program))
    (Capri_workloads.Suite.all ~scale:Capri_workloads.Suite.test_scale ())

let suite =
  [
    Alcotest.test_case "liveness diamond" `Quick test_liveness_diamond;
    Alcotest.test_case "liveness per instruction" `Quick test_liveness_per_instr;
    Alcotest.test_case "interprocedural: call args" `Quick
      test_inter_liveness_call;
    Alcotest.test_case "interprocedural: ret convention" `Quick
      test_inter_liveness_ret_convention;
    Alcotest.test_case "interprocedural: kernels == reference" `Quick
      test_inter_liveness_kernels;
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "dominators: unreachable cycle" `Quick
      test_dominators_unreachable;
    Alcotest.test_case "natural loops" `Quick test_loops;
    Alcotest.test_case "trip count: known" `Quick test_trip_count_known;
    Alcotest.test_case "trip count: unknown" `Quick test_trip_count_unknown;
    Alcotest.test_case "nested loops" `Quick test_nested_loops;
  ]
