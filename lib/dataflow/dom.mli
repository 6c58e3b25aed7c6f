(** Dominator analysis, used to find natural-loop back edges.

    Only blocks reachable from the entry take part in the fixpoint, which
    runs in reverse postorder and costs a couple of passes over them. An
    unreachable block dominates itself only, and an unreachable
    predecessor does not weaken a reachable block's dominators. The
    result is the immediate-dominator array alone; every query walks up
    it. *)

open Capri_ir

type t

val compute : Cfg.t -> t

val dominates_index : t -> int -> int -> bool
(** [dominates_index t a b] iff block [a] dominates block [b], both
    numbered as in the {!Cfg.t} the analysis ran on. *)

val dominates : t -> Label.t -> Label.t -> bool
(** [dominates t a b] iff [a] dominates [b]. *)

val idom : t -> Label.t -> Label.t option
(** Immediate dominator; [None] for the entry block and unreachable
    blocks. *)

val dominators : t -> Label.t -> Label.Set.t
(** All dominators of a block, itself included. Unreachable blocks
    dominate themselves only. *)
