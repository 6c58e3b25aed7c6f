(* The textual IR: parse errors, hand-written sources, and the printer <->
   parser round trip (including over random and compiled programs). *)

open Capri
open Helpers
module Parser = Capri_ir.Parser

let round_trip program =
  match Parser.parse (Parser.to_string program) with
  | Ok p -> p
  | Error e -> Alcotest.failf "round trip: %a" (fun _ -> ignore) e

let programs_equal a b =
  (* Structural comparison through the printer (labels and layout must
     survive). *)
  Parser.to_string a = Parser.to_string b

let test_parse_minimal () =
  let src =
    "program (main = main)\n\n\
     func main (entry entry):\n\
     entry:\n\
     \  r1 = mov 7\n\
     \  out r1\n\
     \  halt\n"
  in
  match Parser.parse src with
  | Error e -> Alcotest.failf "parse failed at line %d: %s" e.Parser.line e.Parser.message
  | Ok program ->
    let result = run_volatile program in
    Alcotest.(check (list int)) "runs" [ 7 ] result.Executor.outputs.(0)

let test_parse_full_grammar () =
  let src =
    "program (main = main)\n\
     data 65536 = 5\n\
     data 65537 = 9\n\n\
     func helper (entry entry):\n\
     entry:\n\
     \  r0 = add r0, 1\n\
     \  ret\n\n\
     func main (entry entry):\n\
     entry:\n\
     \  r1 = mov 65536\n\
     \  r2 = load [r1 + 0]\n\
     \  r3 = load [r1 + 1]\n\
     \  r4 = max r2, r3\n\
     \  store [r1 + 2], r4\n\
     \  r5 = atomic_add [r1 + 3], 2\n\
     \  fence\n\
     \  branch r4 ? big.0 : small.0\n\
     big.0:\n\
     \  r0 = mov r4\n\
     \  call helper ret done.0\n\
     small.0:\n\
     \  r0 = mov 0\n\
     \  jump done.0\n\
     done.0:\n\
     \  out r0\n\
     \  halt\n"
  in
  match Parser.parse src with
  | Error e -> Alcotest.failf "parse failed at line %d: %s" e.Parser.line e.Parser.message
  | Ok program ->
    let result = run_volatile program in
    Alcotest.(check (list int)) "max+1" [ 10 ] result.Executor.outputs.(0);
    (* and the parsed program is compilable + crash-recoverable *)
    let compiled = compile program in
    (match crash_sweep ~stride:3 compiled with
     | Ok _ -> ()
     | Error f -> Alcotest.failf "crash: %s" f.Verify.reason)

let test_parse_errors () =
  let cases =
    [
      ("no header", "func main (entry entry):\nentry:\n  halt\n");
      ("bad reg", "program (main = main)\nfunc main (entry entry):\nentry:\n  r99 = mov 1\n  halt\n");
      ("code outside func", "program (main = main)\n  r1 = mov 1\n");
      ("open block", "program (main = main)\nfunc main (entry entry):\nentry:\n  r1 = mov 1\n");
      ("unknown op", "program (main = main)\nfunc main (entry entry):\nentry:\n  r1 = frob 1, 2\n  halt\n");
      ("dangling label", "program (main = main)\nfunc main (entry entry):\nentry:\n  jump nowhere\n");
    ]
  in
  List.iter
    (fun (name, src) ->
      match Parser.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted" name)
    cases

let test_round_trip_handwritten () =
  List.iter
    (fun program ->
      let p2 = round_trip program in
      Alcotest.(check bool) "identical" true (programs_equal program p2);
      let r1 = run_volatile program in
      let r2 = run_volatile p2 in
      Alcotest.(check bool) "same behaviour" true
        (r1.Executor.outputs = r2.Executor.outputs
         && Memory.equal r1.Executor.memory r2.Executor.memory))
    (let p1, _ = sum_program () in
     let p2 = fib_program () in
     let p3, _, _ = mixed_program () in
     [ p1; p2; p3 ])

let test_round_trip_compiled () =
  (* Compiled programs carry boundaries, checkpoints and sink blocks: the
     grammar must cover all of it. *)
  let program, _, _ = mixed_program ~n:10 () in
  let compiled = compile program in
  let p2 = round_trip compiled.Compiled.program in
  Alcotest.(check bool) "identical" true
    (programs_equal compiled.Compiled.program p2)

let test_round_trip_random () =
  for seed = 0 to 30 do
    let program = Capri_workloads.Gen.program_of_seed seed in
    let p2 = round_trip program in
    if not (programs_equal program p2) then
      Alcotest.failf "seed %d: round trip changed the program" seed
  done

let suite =
  [
    Alcotest.test_case "minimal program" `Quick test_parse_minimal;
    Alcotest.test_case "full grammar" `Quick test_parse_full_grammar;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "round trip: handwritten" `Quick
      test_round_trip_handwritten;
    Alcotest.test_case "round trip: compiled" `Quick test_round_trip_compiled;
    Alcotest.test_case "round trip: random programs" `Quick
      test_round_trip_random;
  ]

let test_error_line_numbers () =
  (* Every rejection must name the offending line. *)
  let cases =
    [
      (* malformed instruction on line 5 *)
      ( "program (main = main)\n\n\
         func main (entry entry):\n\
         entry:\n\
         \  r1 = bogus 7\n\
         \  halt\n",
        5 );
      (* bad operand on line 6 *)
      ( "program (main = main)\n\n\
         func main (entry entry):\n\
         entry:\n\
         \  r1 = mov 1\n\
         \  out $nope\n\
         \  halt\n",
        6 );
      (* validation failure (branch to a missing block) reported at the
         block that contains it *)
      ( "program (main = main)\n\n\
         func main (entry entry):\n\
         entry:\n\
         \  branch r1 ? nowhere.0 : entry\n",
        4 );
    ]
  in
  List.iter
    (fun (src, line) ->
      match Parser.parse src with
      | Ok _ -> Alcotest.failf "accepted malformed source (line %d)" line
      | Error e ->
        Alcotest.(check int)
          (Printf.sprintf "error line for %s" (String.sub src 0 20))
          line e.Parser.line)
    cases

let test_fixpoint_counter_example () =
  (* parse -> print -> parse over the shipped example must be a fixpoint:
     the second print is byte-identical to the first. *)
  let path = example_path "counter.capri" in
  match Parser.parse_file path with
  | Error e ->
    Alcotest.failf "counter.capri: line %d: %s" e.Parser.line e.Parser.message
  | Ok p1 ->
    let s1 = Parser.to_string p1 in
    (match Parser.parse s1 with
     | Error e ->
       Alcotest.failf "reparse: line %d: %s" e.Parser.line e.Parser.message
     | Ok p2 ->
       Alcotest.(check string) "print/parse fixpoint" s1 (Parser.to_string p2))

let suite = suite @ [
    Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
    Alcotest.test_case "fixpoint: examples/counter.capri" `Quick
      test_fixpoint_counter_example;
  ]
