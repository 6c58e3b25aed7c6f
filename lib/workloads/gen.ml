(* Random structured programs for property-based testing and the
   crash-consistency fuzzer (promoted from test/gen_prog.ml).

   Programs are generated as a small statement AST (guaranteeing
   termination and validity by construction) and lowered to the IR.
   Register discipline, so nothing a caller relies on is clobbered by
   the [leaf] call: caller statements use r1-r8 and the slice digest
   r9-r11; [leaf] statements use r20-r24 and return in r0. Loop
   counters live in r16 + nesting depth: [main] nests three deep
   (r16-r18), workers two (r16-r17), and [leaf] is emitted at depth 3,
   so its one level of loops counts in r19, which no caller loop uses.
   Data-loop trip bounds live in r27 in callers and r12 in [leaf]
   (r12-r15 are otherwise untouched). Memory accesses stay inside one
   data array (indices are taken modulo the slice size).

   Multi-core specs: every thread owns a disjoint slice of the data
   array (base kept in r25, which no generated statement touches) and a
   single extra word is shared between all cores, updated only through
   commutative-associative atomics — so the final memory image is
   deterministic under any interleaving, which the differential and
   crash oracles require. *)

open Capri_ir

type stmt =
  | Arith of int * Instr.binop * int * int  (* dst, op, src reg, imm *)
  | Li of int * int
  | LoadArr of int * int  (* dst reg, index reg *)
  | StoreArr of int * int  (* index reg, src reg *)
  | CountedLoop of int * stmt list  (* trips, body *)
  | DataLoop of stmt list  (* trip count read from memory at run time *)
  | IfNz of int * stmt list * stmt list
  | Fence
  | AtomicAdd of int * int  (* private slice: index reg, amount *)
  | AtomicShared of Instr.binop * int  (* shared word: comm/assoc op, amount *)
  | RmwSweep of int * int * int  (* words, stride, addend *)
  | CallLeaf of int  (* argument register *)
  | Emit of int

type prog = {
  thread_stmts : stmt list list;  (* index 0 = main, then workers *)
  leaf_body : stmt list;
  array_words : int;  (* per-thread slice size; power of two *)
}

(* ---------------- generation ---------------- *)

let caller_regs = [ 1; 2; 3; 4; 5; 6; 7; 8 ]
let callee_regs = [ 20; 21; 22; 23; 24 ]

let gen_reg rng regs = List.nth regs (Capri_util.Rng.int rng (List.length regs))

let gen_binop rng =
  let ops =
    [| Instr.Add; Instr.Sub; Instr.Mul; Instr.Xor; Instr.And; Instr.Or;
       Instr.Min; Instr.Max |]
  in
  ops.(Capri_util.Rng.int rng (Array.length ops))

(* Ops safe on the cross-core shared word.
   Each of these is commutative and associative on its own, but they do
   not commute with each other (max then add ≠ add then max), so one op
   is chosen per program and every thread's shared-word atomics use it —
   otherwise the shared word's final value would depend on the
   interleaving and the oracles' memory comparison would be unsound. *)
let shared_ops = [| Instr.Add; Instr.Xor; Instr.Min; Instr.Max; Instr.Or |]

let rec gen_stmt rng ~depth ~regs ~allow_call ~shared_op =
  let pick = Capri_util.Rng.int rng 100 in
  if pick < 25 then
    Arith (gen_reg rng regs, gen_binop rng, gen_reg rng regs,
           Capri_util.Rng.int_in rng 1 9)
  else if pick < 35 then Li (gen_reg rng regs, Capri_util.Rng.int rng 100)
  else if pick < 50 then LoadArr (gen_reg rng regs, gen_reg rng regs)
  else if pick < 65 then StoreArr (gen_reg rng regs, gen_reg rng regs)
  else if pick < 75 && depth > 0 then
    if Capri_util.Rng.bool rng then
      CountedLoop
        (Capri_util.Rng.int_in rng 1 6,
         gen_stmts rng ~depth:(depth - 1) ~regs ~allow_call ~shared_op
           ~len:(Capri_util.Rng.int_in rng 1 4))
    else
      DataLoop
        (gen_stmts rng ~depth:(depth - 1) ~regs ~allow_call ~shared_op
           ~len:(Capri_util.Rng.int_in rng 1 4))
  else if pick < 85 && depth > 0 then
    IfNz
      (gen_reg rng regs,
       gen_stmts rng ~depth:(depth - 1) ~regs ~allow_call ~shared_op
         ~len:(Capri_util.Rng.int_in rng 1 3),
       gen_stmts rng ~depth:(depth - 1) ~regs ~allow_call ~shared_op
         ~len:(Capri_util.Rng.int_in rng 0 3))
  else if pick < 88 then Fence
  else if pick < 90 then
    RmwSweep
      (Capri_util.Rng.int_in rng 8 24, Capri_util.Rng.int_in rng 1 4,
       Capri_util.Rng.int_in rng 1 9)
  else if pick < 94 then
    if Capri_util.Rng.bool rng then
      AtomicAdd (gen_reg rng regs, Capri_util.Rng.int_in rng 1 5)
    else AtomicShared (shared_op, Capri_util.Rng.int_in rng 1 31)
  else if pick < 97 && allow_call then CallLeaf (gen_reg rng regs)
  else Emit (gen_reg rng regs)

and gen_stmts rng ~depth ~regs ~len ~allow_call ~shared_op =
  List.init len (fun _ -> gen_stmt rng ~depth ~regs ~allow_call ~shared_op)

let generate ?(cores = 1) ?(array_words = 32) seed =
  if cores < 1 then invalid_arg "Gen.generate: cores must be >= 1";
  if array_words land (array_words - 1) <> 0 || array_words <= 0 then
    invalid_arg "Gen.generate: array_words must be a power of two";
  let rng = Capri_util.Rng.create seed in
  let shared_op = Capri_util.Rng.choose rng shared_ops in
  let main_stmts =
    gen_stmts rng ~depth:3 ~regs:caller_regs ~allow_call:true ~shared_op
      ~len:(Capri_util.Rng.int_in rng 4 12)
  in
  let leaf_body =
    (* no calls inside the leaf: recursion would be unbounded *)
    gen_stmts rng ~depth:1 ~regs:callee_regs ~allow_call:false ~shared_op
      ~len:(Capri_util.Rng.int_in rng 2 6)
  in
  let workers =
    List.init (cores - 1) (fun _ ->
        gen_stmts rng ~depth:2 ~regs:caller_regs ~allow_call:true ~shared_op
          ~len:(Capri_util.Rng.int_in rng 3 8))
  in
  { thread_stmts = main_stmts :: workers; leaf_body; array_words }

let cores p = List.length p.thread_stmts

let restrict p ~keep =
  if List.length keep <> cores p then
    invalid_arg "Gen.restrict: keep mask arity mismatch";
  {
    p with
    thread_stmts =
      List.map2
        (fun ks stmts ->
          List.filteri (fun i _ -> List.mem i ks) stmts)
        keep p.thread_stmts;
  }

(* ---------------- lowering ---------------- *)

let r = Reg.of_int
let rg i = Builder.reg (r i)
let im = Builder.imm

(* Scratch registers for address computation and loop bounds. *)
let addr_tmp = 28
let bound_tmp = 27  (* callers' data-loop bound *)
let leaf_bound = 12  (* [leaf]'s data-loop bound *)
let arr_base = 26
let slice_reg = 25  (* this thread's slice base; never generated as a dst *)

let rec emit_stmt f ~shared ~mask ~bound ~loop_depth stmt =
  match stmt with
  | Arith (dst, op, src, k) ->
    Builder.binop f op (r dst) (rg src) (im k)
  | Li (dst, v) -> Builder.li f (r dst) v
  | LoadArr (dst, idx) ->
    Builder.binop f Instr.And (r addr_tmp) (rg idx) (im mask);
    Builder.add f (r addr_tmp) (rg addr_tmp) (rg arr_base);
    Builder.load f (r dst) ~base:(r addr_tmp) ()
  | StoreArr (idx, src) ->
    Builder.binop f Instr.And (r addr_tmp) (rg idx) (im mask);
    Builder.add f (r addr_tmp) (rg addr_tmp) (rg arr_base);
    Builder.store f ~base:(r addr_tmp) (rg src)
  | CountedLoop (trips, body) ->
    let idx = 16 + loop_depth in
    let header = Builder.block f "gh" in
    let bodyb = Builder.block f "gb" in
    let exit_ = Builder.block f "gx" in
    Builder.li f (r idx) 0;
    Builder.jump f header;
    Builder.switch f header;
    Builder.binop f Instr.Lt (r 30) (rg idx) (im trips);
    Builder.branch f (rg 30) bodyb exit_;
    Builder.switch f bodyb;
    List.iter
      (emit_stmt f ~shared ~mask ~bound ~loop_depth:(loop_depth + 1))
      body;
    Builder.add f (r idx) (rg idx) (im 1);
    Builder.jump f header;
    Builder.switch f exit_
  | DataLoop body ->
    (* Trip count = slice[0] mod 4 + 1, unknown at compile time. *)
    let idx = 16 + loop_depth in
    let header = Builder.block f "dh" in
    let bodyb = Builder.block f "db" in
    let exit_ = Builder.block f "dx" in
    Builder.load f (r bound) ~base:(r arr_base) ();
    Builder.binop f Instr.And (r bound) (rg bound) (im 3);
    Builder.add f (r bound) (rg bound) (im 1);
    Builder.li f (r idx) 0;
    Builder.jump f header;
    Builder.switch f header;
    Builder.binop f Instr.Lt (r 30) (rg idx) (rg bound);
    Builder.branch f (rg 30) bodyb exit_;
    Builder.switch f bodyb;
    List.iter
      (emit_stmt f ~shared ~mask ~bound ~loop_depth:(loop_depth + 1))
      body;
    Builder.add f (r idx) (rg idx) (im 1);
    Builder.jump f header;
    Builder.switch f exit_
  | IfNz (cond, then_, else_) ->
    let tb = Builder.block f "gt" in
    let eb = Builder.block f "ge" in
    let join = Builder.block f "gj" in
    Builder.branch f (rg cond) tb eb;
    Builder.switch f tb;
    List.iter (emit_stmt f ~shared ~mask ~bound ~loop_depth) then_;
    Builder.jump f join;
    Builder.switch f eb;
    List.iter (emit_stmt f ~shared ~mask ~bound ~loop_depth) else_;
    Builder.jump f join;
    Builder.switch f join
  | Fence -> Builder.fence f
  | AtomicAdd (idx, k) ->
    Builder.binop f Instr.And (r addr_tmp) (rg idx) (im mask);
    Builder.add f (r addr_tmp) (rg addr_tmp) (rg arr_base);
    Builder.atomic_rmw f Instr.Add (r 29) ~base:(r addr_tmp) (im k)
  | AtomicShared (op, k) ->
    Builder.li f (r addr_tmp) shared;
    Builder.atomic_rmw f op (r 29) ~base:(r addr_tmp) (im k)
  | RmwSweep (words, stride, k) ->
    (* Straight-line load-add-store over [words] slice words [stride]
       apart. Unlike atomics (which are boundary triggers), nothing here
       starts a region, so the whole sweep's stores share one region —
       dirtying enough lines that small caches write uncommitted data
       back to NVM mid-region. This is the access pattern that makes
       recovery's undo pass observable (the oracle-sensitivity tests
       depend on it). r30 only carries values within a single lowered
       statement, so it is safe as the read-modify-write temporary. *)
    for i = 0 to words - 1 do
      Builder.li f (r addr_tmp) ((i * stride) land mask);
      Builder.add f (r addr_tmp) (rg addr_tmp) (rg arr_base);
      Builder.load f (r 30) ~base:(r addr_tmp) ();
      Builder.binop f Instr.Add (r 30) (rg 30) (im k);
      Builder.store f ~base:(r addr_tmp) (rg 30)
    done
  | CallLeaf arg ->
    Builder.mv f (r 0) (r arg);
    Builder.call_cont f "leaf"
  | Emit src -> Builder.out f (rg src)

let thread_func_name t = if t = 0 then "main" else Printf.sprintf "w%d" t

(* Each thread function: set up the slice base, run its statements, then
   emit a digest of its own slice so outputs reflect memory. Threads
   never read another thread's slice (workers may still be running when
   one finishes), and the shared word is write-only via atomics, so the
   observable behaviour is interleaving-independent. *)
let emit_thread f ~slice_base ~shared ~mask ~array_words stmts =
  Builder.li f (r arr_base) slice_base;
  Builder.li f (r slice_reg) slice_base;
  List.iter (emit_stmt f ~shared ~mask ~bound:bound_tmp ~loop_depth:0) stmts;
  Builder.li f (r 9) 0;
  let header = Builder.block f "digest.h" in
  let body = Builder.block f "digest.b" in
  let exit_ = Builder.block f "digest.x" in
  Builder.li f (r 10) 0;
  Builder.jump f header;
  Builder.switch f header;
  Builder.binop f Instr.Lt (r 30) (rg 10) (im array_words);
  Builder.branch f (rg 30) body exit_;
  Builder.switch f body;
  Builder.add f (r addr_tmp) (rg arr_base) (rg 10);
  Builder.load f (r 11) ~base:(r addr_tmp) ();
  Builder.binop f Instr.Xor (r 9) (rg 9) (rg 11);
  Builder.add f (r 10) (rg 10) (im 1);
  Builder.jump f header;
  Builder.switch f exit_;
  Builder.out f (rg 9);
  Builder.halt f

let lower (p : prog) =
  let n = cores p in
  let mask = p.array_words - 1 in
  let b = Builder.create () in
  let arr =
    Builder.alloc_init b
      (Array.init (n * p.array_words) (fun i -> (i * 17) mod 23))
  in
  let shared = Builder.alloc_init b [| 0 |] in
  (* leaf(r0) -> r0; uses the calling thread's slice via r25 *)
  let leaf = Builder.func b "leaf" in
  Builder.mv leaf (r arr_base) (r slice_reg);
  List.iter
    (emit_stmt leaf ~shared ~mask ~bound:leaf_bound ~loop_depth:3)
    p.leaf_body;
  Builder.add leaf (r 0) (rg 0) (rg 20);
  Builder.ret leaf;
  List.iteri
    (fun t stmts ->
      let f = Builder.func b (thread_func_name t) in
      emit_thread f
        ~slice_base:(arr + (t * p.array_words))
        ~shared ~mask ~array_words:p.array_words stmts)
    p.thread_stmts;
  let program = Builder.finish b ~main:"main" in
  let threads =
    List.mapi
      (fun t _ -> { Capri_runtime.Executor.func = thread_func_name t; args = [] })
      p.thread_stmts
  in
  (program, threads)

let program_of_seed seed = fst (lower (generate seed))

(* ---------------- pretty-printing (shrunk reproducers) ---------------- *)

let rec pp_stmt fmt = function
  | Arith (d, op, s, k) ->
    Format.fprintf fmt "r%d := r%d %s %d" d s (Instr.binop_name op) k
  | Li (d, v) -> Format.fprintf fmt "r%d := %d" d v
  | LoadArr (d, i) -> Format.fprintf fmt "r%d := arr[r%d]" d i
  | StoreArr (i, s) -> Format.fprintf fmt "arr[r%d] := r%d" i s
  | CountedLoop (trips, body) ->
    Format.fprintf fmt "@[<v 2>loop %d {%a@]@,}" trips pp_body body
  | DataLoop body ->
    Format.fprintf fmt "@[<v 2>loop arr[0]&3+1 {%a@]@,}" pp_body body
  | IfNz (c, t, e) ->
    Format.fprintf fmt "@[<v 2>if r%d {%a@]@,}" c pp_body t;
    (match e with
     | [] -> ()
     | _ -> Format.fprintf fmt "@[<v 2> else {%a@]@,}" pp_body e)
  | Fence -> Format.fprintf fmt "fence"
  | AtomicAdd (i, k) -> Format.fprintf fmt "atomic arr[r%d] += %d" i k
  | AtomicShared (op, k) ->
    Format.fprintf fmt "atomic shared %s= %d" (Instr.binop_name op) k
  | RmwSweep (w, s, k) ->
    Format.fprintf fmt "sweep %d words stride %d: arr[i] += %d" w s k
  | CallLeaf a -> Format.fprintf fmt "call leaf(r%d)" a
  | Emit s -> Format.fprintf fmt "emit r%d" s

and pp_body fmt body =
  List.iter (fun s -> Format.fprintf fmt "@,%a" pp_stmt s) body

let pp_prog fmt p =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun t stmts ->
      Format.fprintf fmt "@[<v 2>%s:%a@]@," (thread_func_name t) pp_body stmts)
    p.thread_stmts;
  Format.fprintf fmt "@[<v 2>leaf:%a@]@," pp_body p.leaf_body;
  Format.fprintf fmt "@]"
