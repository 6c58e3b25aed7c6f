let data_base = 0x10000
let line_words = 8

type fb = {
  f : Func.t;
  fname : string;
  mutable cur : Label.t option;  (* open block receiving instructions *)
  mutable rev_instrs : Instr.t list;
  declared : unit Label.Tbl.t;  (* declared but not yet closed *)
}

type t = {
  mutable funcs : fb list;  (* reversed *)
  mutable next_addr : int;
  mutable data : (int * int) list;  (* reversed *)
  mutable blobs : (int * int array) list;  (* reversed *)
}

let create () = { funcs = []; next_addr = data_base; data = []; blobs = [] }

let alloc t ~words =
  if words <= 0 then invalid_arg "Builder.alloc: non-positive size";
  let base = t.next_addr in
  let padded = (words + line_words - 1) / line_words * line_words in
  t.next_addr <- t.next_addr + padded;
  base

let init_word t ~addr v = t.data <- (addr, v) :: t.data

let alloc_init t values =
  let base = alloc t ~words:(Array.length values) in
  Array.iteri (fun i v -> init_word t ~addr:(base + i) v) values;
  base

(* Bulk initialized segment: one (base, words) pair instead of one list
   cell per word. [alloc_init] at a million-key store's table size would
   cost millions of cons cells before the loader even runs; a blob is
   the table itself, handed to the loader as-is. The caller must not
   mutate [values] afterwards. *)
let alloc_blob t values =
  let base = alloc t ~words:(max 1 (Array.length values)) in
  t.blobs <- (base, values) :: t.blobs;
  base

let extent t = t.next_addr - data_base

let reg r = Instr.Reg r
let imm i = Instr.Imm i

let func t name =
  if List.exists (fun fb -> String.equal fb.fname name) t.funcs then
    invalid_arg (Printf.sprintf "Builder.func: duplicate function %s" name);
  let entry = Label.of_string "entry" in
  let f =
    Func.create ~name ~entry
      [ Block.create entry [] Instr.Halt ]
  in
  (* The placeholder entry block is re-opened: instructions accumulate in
     the builder and are flushed into it when a terminator closes it. *)
  let fb =
    { f; fname = name; cur = Some entry; rev_instrs = [];
      declared = Label.Tbl.create 8 }
  in
  t.funcs <- fb :: t.funcs;
  fb

let emit fb i =
  match fb.cur with
  | None ->
    invalid_arg
      (Printf.sprintf
         "Builder: emitting into %s with no open block (missing switch?)"
         fb.fname)
  | Some _ -> fb.rev_instrs <- i :: fb.rev_instrs

let close fb term =
  match fb.cur with
  | None ->
    invalid_arg
      (Printf.sprintf "Builder: terminator in %s with no open block" fb.fname)
  | Some label ->
    let b = Func.find fb.f label in
    b.Block.instrs <- List.rev fb.rev_instrs;
    b.Block.term <- term;
    fb.cur <- None;
    fb.rev_instrs <- []

let block fb base =
  let label = Func.fresh_label fb.f base in
  Func.add_block fb.f (Block.create label [] Instr.Halt);
  Label.Tbl.add fb.declared label ();
  label

let switch fb label =
  (match fb.cur with
   | Some open_label ->
     invalid_arg
       (Printf.sprintf "Builder.switch: block %s of %s still open"
          (Label.to_string open_label) fb.fname)
   | None -> ());
  if not (Label.Tbl.mem fb.declared label) then
    invalid_arg
      (Printf.sprintf "Builder.switch: block %s not declared or already closed"
         (Label.to_string label));
  Label.Tbl.remove fb.declared label;
  fb.cur <- Some label;
  fb.rev_instrs <- []

let current fb =
  match fb.cur with
  | Some l -> l
  | None -> invalid_arg "Builder.current: no open block"

let binop fb op dst a b = emit fb (Instr.Binop { op; dst; a; b })
let li fb dst v = emit fb (Instr.Mov { dst; src = Instr.Imm v })
let mv fb dst src = emit fb (Instr.Mov { dst; src = Instr.Reg src })
let add fb dst a b = binop fb Instr.Add dst a b
let sub fb dst a b = binop fb Instr.Sub dst a b
let mul fb dst a b = binop fb Instr.Mul dst a b

let load fb dst ~base ?(off = 0) () =
  emit fb (Instr.Load { dst; base; offset = off })

let store fb ~base ?(off = 0) src =
  emit fb (Instr.Store { base; offset = off; src })

let atomic_rmw fb op dst ~base ?(off = 0) src =
  emit fb (Instr.Atomic_rmw { op; dst; base; offset = off; src })

let fence fb = emit fb Instr.Fence
let out fb src = emit fb (Instr.Out src)

let jump fb label = close fb (Instr.Jump label)

let branch fb cond if_true if_false =
  close fb (Instr.Branch { cond; if_true; if_false })

let call fb callee ~ret_to = close fb (Instr.Call { callee; ret_to })

let call_cont fb callee =
  let ret_to = block fb "cont" in
  call fb callee ~ret_to;
  switch fb ret_to

let ret fb = close fb Instr.Ret
let halt fb = close fb Instr.Halt

let finish t ~main =
  let funcs =
    List.rev_map
      (fun fb ->
        (match fb.cur with
         | Some l ->
           invalid_arg
             (Printf.sprintf "Builder.finish: open block %s in %s"
                (Label.to_string l) fb.fname)
         | None -> ());
        (match Label.Tbl.length fb.declared with
         | 0 -> ()
         | n ->
           invalid_arg
             (Printf.sprintf "Builder.finish: %d unfilled block(s) in %s" n
                fb.fname));
        fb.f)
      t.funcs
  in
  let program =
    Program.create ~blobs:(List.rev t.blobs) ~funcs ~main
      ~data:(List.rev t.data) ()
  in
  Validate.check_exn program;
  program
