(** Interprocedural register liveness.

    Checkpoint-set analysis needs liveness across call boundaries: the
    caller must checkpoint the registers the callee's regions will rely on
    (its entry live-ins) as well as its own registers that are live after
    the call returns. This module iterates per-function liveness to a
    whole-program fixed point with:

    - the live-out of a [Call] block = live-in of its return block ∪
      live-in of the callee's entry;
    - the live-out of a [Ret] block = r0 (the return-value convention)
      joined with the live-ins of every caller's
      continuation block: a value may flow callee -> caller -> later
      reader without the caller touching the register, and the
      checkpoint analysis must see it live across the return.

    Each function is numbered once ({!Cfg}), and each block is summarised
    once as the registers it reads before writing and the registers it
    writes. [Reg.Set.t] is a 32-bit mask, so a fixpoint visit costs a few
    integer operations and a query returns the stored set as it is. *)

open Capri_ir

type t

val compute : Program.t -> t

val live_in : t -> Func.t -> Label.t -> Reg.Set.t
val live_out : t -> Func.t -> Label.t -> Reg.Set.t
(** Block-exit liveness including the interprocedural call/ret rules. *)

val entry_live_in : t -> string -> Reg.Set.t
(** Live-in of a function's entry block (what callers must preserve). *)

val ret_live_out : t -> string -> Reg.Set.t
(** Live-out at the function's [Ret] blocks: r0 plus everything live at
    any caller's continuation. *)

val live_before_instrs : t -> Func.t -> Block.t -> Reg.Set.t array
(** [live_before_instrs t f b] has one entry per instruction of [b]: the
    registers live just before it, plus a final entry for just before
    the terminator. *)

val cfg : t -> Func.t -> Cfg.t
(** The numbering the analysis ran on: valid while no pass adds blocks to
    the function or rewrites its terminators. *)
