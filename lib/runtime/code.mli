(** Code addressing and decoded blocks.

    Every basic block gets an integer index (and the code address
    [code_base + index], used for return addresses pushed on the in-memory
    stack and decoded again by [Ret]). {!build} decodes each block once
    per session: register operands become integer indices, immediates
    are unwrapped, each terminator's targets are resolved to block
    indices and each region boundary to its static region's tally row,
    so the executor lowers blocks to closures without per-branch string
    conversion or hashing. *)

open Capri_ir

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
      (** [row]: the boundary's tally row, its index in {!row_ids} *)
  | Dckpt of { reg : int; slot : int }
  | Dckpt_load of { dst : int; slot : int }

type dterm =
  | Djump of int  (** target block index *)
  | Dbranch of { cond : dop; if_true : int; if_false : int }
  | Dcall of { callee_entry : int; ret_addr : int }
      (** [ret_addr] is the code address (not index) pushed on the stack *)
  | Dret
  | Dhalt

type block = {
  dinstrs : dinstr array;
  dterm : dterm;
  fast : bool;
      (** no region boundary or recovery-only instruction: the whole
          block may run in the executor's fused loop (which skips the
          per-instruction scheduler/crash checks) when its other
          preconditions hold *)
  fname : string;  (** enclosing function *)
  label : Label.t;
}

val thread_local : block -> int -> bool
(** [thread_local b i]: closure [i] of [b] (the terminator at
    [i = Array.length b.dinstrs]) touches only its own thread's
    registers, cycle count and staged checkpoints, and costs one cycle:
    [Dbinop], [Dmov], [Dckpt], [Dfence], [Djump] and [Dbranch]. Every
    other instruction and terminator reaches memory, the caches, the
    persist engine or the journal. *)

type t

val build : Program.t -> t
(** Numbers and decodes every block of every function; raises
    [Not_found] if a terminator references a missing label or function
    (programs are expected to have passed {!Capri_ir.Validate}). *)

val block : t -> int -> block
val length : t -> int
(** Number of blocks; indices run from 0 to [length t - 1]. *)

val row_ids : t -> int array
(** The program's distinct boundary ids in ascending order: entry [i] is
    the id of tally row [i], one row per static region. *)

val index_of : t -> func:string -> Label.t -> int
(** Raises [Not_found]. *)

val entry_index : t -> string -> int
(** Block index of a function's entry block; raises [Not_found]. *)

val index_of_addr : t -> int -> int
(** Decode a stack-resident code address back to a block index. Raises
    [Not_found] for addresses that are not block entries. *)

val addr_of : t -> func:string -> Label.t -> int
val target_of : t -> int -> string * Label.t
(** Raises [Not_found] for addresses that are not block entries. *)
