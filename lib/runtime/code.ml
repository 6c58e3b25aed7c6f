open Capri_ir

(* Every block decoded once, with its control transfers resolved to
   integer block indices, so the executor's dispatch loop never hashes a
   string or re-resolves an operand. *)

type dop = Dreg of int | Dimm of int

type dinstr =
  | Dbinop of { op : Instr.binop; dst : int; a : dop; b : dop }
  | Dmov of { dst : int; src : dop }
  | Dload of { dst : int; base : int; offset : int }
  | Dstore of { base : int; offset : int; src : dop }
  | Datomic of { op : Instr.binop; dst : int; base : int; offset : int;
                 src : dop }
  | Dfence
  | Dout of dop
  | Dboundary of { id : int; row : int }
  | Dckpt of { reg : int; slot : int }
  | Dckpt_load of { dst : int; slot : int }

type dterm =
  | Djump of int
  | Dbranch of { cond : dop; if_true : int; if_false : int }
  | Dcall of { callee_entry : int; ret_addr : int }
  | Dret
  | Dhalt

type block = {
  dinstrs : dinstr array;
  dterm : dterm;
  fast : bool;
  fname : string;
  label : Label.t;
}

type t = {
  blocks : block array;  (* index = addr - code_base *)
  row_ids : int array;  (* tally row -> boundary id, ascending *)
  by_key : (string * string, int) Hashtbl.t;  (* (func, label) -> index *)
  entries : (string, int) Hashtbl.t;  (* function name -> entry index *)
}

(* Code addresses start high so they are recognizable in dumps and cannot
   collide with small data values in tests. *)
let code_base = 0x4000_0000

let decode_op = function
  | Instr.Reg r -> Dreg (Reg.to_int r)
  | Instr.Imm i -> Dimm i

let decode_instr row_of = function
  | Instr.Binop { op; dst; a; b } ->
    Dbinop { op; dst = Reg.to_int dst; a = decode_op a; b = decode_op b }
  | Instr.Mov { dst; src } ->
    Dmov { dst = Reg.to_int dst; src = decode_op src }
  | Instr.Load { dst; base; offset } ->
    Dload { dst = Reg.to_int dst; base = Reg.to_int base; offset }
  | Instr.Store { base; offset; src } ->
    Dstore { base = Reg.to_int base; offset; src = decode_op src }
  | Instr.Atomic_rmw { op; dst; base; offset; src } ->
    Datomic
      { op; dst = Reg.to_int dst; base = Reg.to_int base; offset;
        src = decode_op src }
  | Instr.Fence -> Dfence
  | Instr.Out src -> Dout (decode_op src)
  | Instr.Boundary { id } -> Dboundary { id; row = Hashtbl.find row_of id }
  | Instr.Ckpt { reg; slot } -> Dckpt { reg = Reg.to_int reg; slot }
  | Instr.Ckpt_load { dst; slot } ->
    Dckpt_load { dst = Reg.to_int dst; slot }

(* A block is fused-loop eligible unless it contains a region boundary
   (whose bookkeeping reads the region's running instruction counter
   mid-flight) or a recovery-only Ckpt_load. Stores and atomics are fine:
   the executor only engages the fused loop when the conflict fence is
   off, so their closures cannot raise. *)
let fuse_safe = function
  | Dboundary _ | Dckpt_load _ -> false
  | Dbinop _ | Dmov _ | Dload _ | Dstore _ | Datomic _ | Dfence | Dout _
  | Dckpt _ -> true

(* The executor's runahead may run these ahead of the reference order.
   A [Dckpt] qualifies because it stages into its own core's slot
   buffer, read only at that core's next boundary; a [Dfence] because
   it is a counter bump whenever runahead is on (the tracer is off). *)
let thread_local b i =
  if i < Array.length b.dinstrs then
    match b.dinstrs.(i) with
    | Dbinop _ | Dmov _ | Dckpt _ | Dfence -> true
    | Dload _ | Dstore _ | Datomic _ | Dout _ | Dboundary _ | Dckpt_load _ ->
      false
  else
    match b.dterm with
    | Djump _ | Dbranch _ -> true
    | Dcall _ | Dret | Dhalt -> false

let build (program : Program.t) =
  (* Each function's blocks in layout order, listed once for the three
     passes below ([Func.blocks] builds its list on every call). *)
  let funcs = List.map (fun f -> (f, Func.blocks f)) program.Program.funcs in
  (* Number every block in layout order first: a terminator may name a
     later block or function. *)
  let by_key = Hashtbl.create 256 in
  let entries = Hashtbl.create 16 in
  let count = ref 0 in
  List.iter
    (fun (f, blocks) ->
      List.iter
        (fun (b : Block.t) ->
          Hashtbl.replace by_key
            (Func.name f, Label.to_string b.Block.label)
            !count;
          incr count)
        blocks;
      Hashtbl.replace entries (Func.name f)
        (Hashtbl.find by_key (Func.name f, Label.to_string (Func.entry f))))
    funcs;
  (* One tally row per static region: the distinct boundary ids, numbered
     densely in ascending order. *)
  let ids = ref [] in
  let note = function Instr.Boundary { id } -> ids := id :: !ids | _ -> () in
  List.iter
    (fun (_, blocks) ->
      List.iter (fun (b : Block.t) -> List.iter note b.Block.instrs) blocks)
    funcs;
  let row_ids = Array.of_list (List.sort_uniq Int.compare !ids) in
  let row_of = Hashtbl.create (Array.length row_ids) in
  Array.iteri (fun row id -> Hashtbl.replace row_of id row) row_ids;
  let decode_instr = decode_instr row_of in
  let decode fname (b : Block.t) =
    let local l = Hashtbl.find by_key (fname, Label.to_string l) in
    let dinstrs = Array.map decode_instr (Array.of_list b.Block.instrs) in
    let dterm =
      match b.Block.term with
      | Instr.Jump l -> Djump (local l)
      | Instr.Branch { cond; if_true; if_false } ->
        Dbranch
          { cond = decode_op cond; if_true = local if_true;
            if_false = local if_false }
      | Instr.Call { callee; ret_to } ->
        Dcall
          {
            callee_entry = Hashtbl.find entries callee;
            ret_addr = code_base + local ret_to;
          }
      | Instr.Ret -> Dret
      | Instr.Halt -> Dhalt
    in
    { dinstrs; dterm; fast = Array.for_all fuse_safe dinstrs; fname;
      label = b.Block.label }
  in
  let blocks =
    List.concat_map (fun (f, blocks) -> List.map (decode (Func.name f)) blocks)
      funcs
    |> Array.of_list
  in
  { blocks; row_ids; by_key; entries }

let block t idx = t.blocks.(idx)
let length t = Array.length t.blocks
let row_ids t = t.row_ids

let index_of t ~func label =
  Hashtbl.find t.by_key (func, Label.to_string label)

let entry_index t func = Hashtbl.find t.entries func

let index_of_addr t addr =
  let idx = addr - code_base in
  if idx < 0 || idx >= Array.length t.blocks then raise Not_found;
  idx

let addr_of t ~func label = code_base + index_of t ~func label

let target_of t addr =
  let b = t.blocks.(index_of_addr t addr) in
  (b.fname, b.label)
