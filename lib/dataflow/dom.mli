(** Dominator analysis, used to find natural-loop back edges.

    Only blocks reachable from the entry take part in the fixpoint, which
    runs in reverse postorder and costs a couple of passes over them. An
    unreachable block dominates itself only, and an unreachable
    predecessor does not weaken a reachable block's dominators. *)

open Capri_ir

type t

val compute : Func.t -> t

val dominators : t -> Label.t -> Label.Set.t
(** All dominators of a block, itself included. Unreachable blocks
    dominate themselves only. *)

val dominates : t -> Label.t -> Label.t -> bool
(** [dominates t a b] iff [a] dominates [b]. *)

val idom : t -> Label.t -> Label.t option
(** Immediate dominator; [None] for the entry block and unreachable
    blocks. *)
