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

    Each block is summarised once as the registers it reads before writing
    and the registers it writes, held as 32-bit masks, so a fixpoint
    visit costs a few integer operations; the accessors convert to
    [Reg.Set.t]. *)

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
(** Per-instruction live-before sets, as {!Liveness.live_before_instrs}. *)
