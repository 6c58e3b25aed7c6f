(** One numbering of a function's blocks, which the analyses share.

    Blocks are numbered in layout order, so the entry block is number 0.
    The numbering carries each block's successors and predecessors as
    lists of numbers and the reachable blocks in reverse postorder;
    {!Dom}, {!Loops} and {!Inter_liveness} work over these numbers
    instead of each building a label-keyed map of its own.

    It is a snapshot: a pass that adds blocks or rewrites terminators
    builds a new one. *)

open Capri_ir

type t

val of_func : Func.t -> t
(** Raises [Not_found] when a terminator names a label the function
    lacks. *)

val size : t -> int
val block : t -> int -> Block.t
val label : t -> int -> Label.t

val index : t -> Label.t -> int
(** Raises [Not_found]. *)

val succs : t -> int -> int list
(** In {!Instr.term_succs} order; a branch with both sides on one block
    lists it twice. *)

val preds : t -> int -> int list
(** Every block with an edge in, reachable or not, one entry per edge. *)

val rpo : t -> int array
(** The blocks reachable from the entry, in reverse postorder of a
    depth-first walk that takes successors in {!succs} order. *)
