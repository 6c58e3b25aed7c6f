(** Instructions and terminators of the Capri IR.

    Memory is word-addressed at 8-byte granularity at the ISA level; the
    architecture model groups words into 64-byte cache lines. Comparison
    binops yield 0/1, consumed by [Branch] (taken when non-zero).

    [Boundary] and [Ckpt] are emitted only by the Capri compiler: a
    [Boundary] marks a region commit point (Section 3.2) and a [Ckpt] is a
    register-checkpointing store to the fixed per-core NVM checkpoint array
    (Section 4.2). [Ckpt_load] appears only in generated recovery blocks
    (Section 4.4.1), reloading a checkpointed value during recovery. *)

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
      (** [dst <- mem\[reg(base) + offset\]] *)
  | Store of { base : Reg.t; offset : int; src : operand }
      (** [mem\[reg(base) + offset\] <- src]; counted against the region
          store threshold. *)
  | Atomic_rmw of { op : binop; dst : Reg.t; base : Reg.t; offset : int;
                    src : operand }
      (** Atomic read-modify-write; forces a region boundary (Section 4.1)
          and counts as one store. [dst] receives the old value. *)
  | Fence  (** Memory fence; forces a region boundary. *)
  | Out of operand  (** Observable output (models I/O, Section 3.3). *)
  | Boundary of { id : int }  (** Region boundary (compiler-inserted). *)
  | Ckpt of { reg : Reg.t; slot : int }
      (** Checkpoint store of [reg] to checkpoint-array slot [slot]
          (compiler-inserted); counts as a store for the threshold. *)
  | Ckpt_load of { dst : Reg.t; slot : int }
      (** Recovery-only: reload slot [slot] into [dst]. *)

type terminator =
  | Jump of Label.t
  | Branch of { cond : operand; if_true : Label.t; if_false : Label.t }
  | Call of { callee : string; ret_to : Label.t }
      (** Decrements the stack pointer and pushes the return code-address to
          the in-memory stack (one regular store through the persistence
          machinery), then enters [callee]. [Ret] pops it back. Register
          spills around calls are explicit [Store]/[Load] instructions so
          that the checkpoint analysis sees the reload defs. *)
  | Ret
  | Halt

val defs : t -> Reg.Set.t
(** Registers written by an instruction. *)

val uses : t -> Reg.Set.t
(** Registers read by an instruction. *)

val is_store : t -> bool
(** Counts against the region store threshold ([Store], [Atomic_rmw],
    [Ckpt]). *)

val is_boundary_trigger : t -> bool
(** Must start a fresh region per Section 4.1 ([Fence], [Atomic_rmw]). *)

val term_uses : terminator -> Reg.Set.t
val term_succs : terminator -> Label.t list
(** Intra-procedural successors: [Call]'s successor is its return label. *)

val term_store_count : terminator -> int
(** Implicit stores performed by the terminator (the return-address push
    of [Call]). *)

val binop_fn : binop -> int -> int -> int
(** The one definition of binop semantics. Division and remainder by
    zero yield 0 (no trap: the machine is total). The executor resolves
    each operator once, when it lowers a block, and keeps the function. *)

val eval_binop : binop -> int -> int -> int
(** [binop_fn op a b]; recovery blocks evaluate through it. *)

val pp : Format.formatter -> t -> unit
val pp_terminator : Format.formatter -> terminator -> unit
val binop_name : binop -> string
