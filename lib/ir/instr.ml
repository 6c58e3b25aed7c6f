type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Lt | Le | Eq | Ne
  | Min | Max

type operand = Reg of Reg.t | Imm of int

type t =
  | Binop of { op : binop; dst : Reg.t; a : operand; b : operand }
  | Mov of { dst : Reg.t; src : operand }
  | Load of { dst : Reg.t; base : Reg.t; offset : int }
  | Store of { base : Reg.t; offset : int; src : operand }
  | Atomic_rmw of { op : binop; dst : Reg.t; base : Reg.t; offset : int;
                    src : operand }
  | Fence
  | Out of operand
  | Boundary of { id : int }
  | Ckpt of { reg : Reg.t; slot : int }
  | Ckpt_load of { dst : Reg.t; slot : int }

type terminator =
  | Jump of Label.t
  | Branch of { cond : operand; if_true : Label.t; if_false : Label.t }
  | Call of { callee : string; ret_to : Label.t }
  | Ret
  | Halt

let operand_uses = function Reg r -> Reg.Set.singleton r | Imm _ -> Reg.Set.empty

let defs = function
  | Binop { dst; _ } | Mov { dst; _ } | Load { dst; _ }
  | Atomic_rmw { dst; _ } | Ckpt_load { dst; _ } ->
    Reg.Set.singleton dst
  | Store _ | Fence | Out _ | Boundary _ | Ckpt _ -> Reg.Set.empty

let uses = function
  | Binop { a; b; _ } -> Reg.Set.union (operand_uses a) (operand_uses b)
  | Mov { src; _ } | Out src -> operand_uses src
  | Load { base; _ } -> Reg.Set.singleton base
  | Store { base; src; _ } -> Reg.Set.add base (operand_uses src)
  | Atomic_rmw { base; src; _ } -> Reg.Set.add base (operand_uses src)
  | Ckpt { reg; _ } -> Reg.Set.singleton reg
  | Fence | Boundary _ | Ckpt_load _ -> Reg.Set.empty

let is_store = function
  | Store _ | Atomic_rmw _ | Ckpt _ -> true
  | Binop _ | Mov _ | Load _ | Fence | Out _ | Boundary _ | Ckpt_load _ ->
    false

let is_boundary_trigger = function
  | Fence | Atomic_rmw _ -> true
  | Binop _ | Mov _ | Load _ | Store _ | Out _ | Boundary _ | Ckpt _
  | Ckpt_load _ ->
    false

let term_uses = function
  | Branch { cond; _ } -> operand_uses cond
  | Call _ | Ret -> Reg.Set.singleton Reg.sp
  | Jump _ | Halt -> Reg.Set.empty

let term_succs = function
  | Jump l -> [ l ]
  | Branch { if_true; if_false; _ } -> [ if_true; if_false ]
  | Call { ret_to; _ } -> [ ret_to ]
  | Ret | Halt -> []

let term_store_count = function
  | Call _ -> 1
  | Jump _ | Branch _ | Ret | Halt -> 0

let binop_fn : binop -> int -> int -> int = function
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> fun a b -> if b = 0 then 0 else a / b
  | Rem -> fun a b -> if b = 0 then 0 else a mod b
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | Shl -> fun a b -> a lsl (b land 63)
  | Shr -> fun a b -> a asr (b land 63)
  | Lt -> fun a b -> if a < b then 1 else 0
  | Le -> fun a b -> if a <= b then 1 else 0
  | Eq -> fun a b -> if a = b then 1 else 0
  | Ne -> fun a b -> if a <> b then 1 else 0
  | Min -> Int.min
  | Max -> Int.max

let eval_binop op a b = binop_fn op a b

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Lt -> "lt" | Le -> "le" | Eq -> "eq" | Ne -> "ne"
  | Min -> "min" | Max -> "max"

let pp_operand fmt = function
  | Reg r -> Reg.pp fmt r
  | Imm i -> Format.fprintf fmt "%d" i

let pp fmt = function
  | Binop { op; dst; a; b } ->
    Format.fprintf fmt "%a = %s %a, %a" Reg.pp dst (binop_name op)
      pp_operand a pp_operand b
  | Mov { dst; src } ->
    Format.fprintf fmt "%a = mov %a" Reg.pp dst pp_operand src
  | Load { dst; base; offset } ->
    Format.fprintf fmt "%a = load [%a + %d]" Reg.pp dst Reg.pp base offset
  | Store { base; offset; src } ->
    Format.fprintf fmt "store [%a + %d], %a" Reg.pp base offset pp_operand src
  | Atomic_rmw { op; dst; base; offset; src } ->
    Format.fprintf fmt "%a = atomic_%s [%a + %d], %a" Reg.pp dst
      (binop_name op) Reg.pp base offset pp_operand src
  | Fence -> Format.pp_print_string fmt "fence"
  | Out src -> Format.fprintf fmt "out %a" pp_operand src
  | Boundary { id } -> Format.fprintf fmt "boundary #%d" id
  | Ckpt { reg; slot } ->
    Format.fprintf fmt "ckpt %a -> slot[%d]" Reg.pp reg slot
  | Ckpt_load { dst; slot } ->
    Format.fprintf fmt "%a = ckpt_load slot[%d]" Reg.pp dst slot

let pp_terminator fmt = function
  | Jump l -> Format.fprintf fmt "jump %a" Label.pp l
  | Branch { cond; if_true; if_false } ->
    Format.fprintf fmt "branch %a ? %a : %a" pp_operand cond Label.pp if_true
      Label.pp if_false
  | Call { callee; ret_to } ->
    Format.fprintf fmt "call %s ret %a" callee Label.pp ret_to
  | Ret -> Format.pp_print_string fmt "ret"
  | Halt -> Format.pp_print_string fmt "halt"
