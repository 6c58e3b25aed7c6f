(** Natural-loop detection.

    Capri places a region boundary at every loop header (Section 4.1) and
    speculatively unrolls loops whose trip counts are unknown at compile
    time (Section 4.3). The unroller only transforms {e simple} loops: a
    single back edge (one latch), which covers the while/do-while shapes of
    the paper's Figure 2. *)

open Capri_ir

type loop = {
  header : Label.t;
  latches : Label.Set.t;  (** sources of back edges into [header] *)
  body : Label.Set.t;  (** all blocks of the natural loop, header included *)
  depth : int;  (** nesting depth, 1 for outermost *)
}

type t

val compute : Cfg.t -> t
(** The loops of the numbered function. *)

val loops : t -> loop list
(** Innermost first (deeper nesting sorts earlier). Loops sharing a header
    are merged into one [loop] with several latches. *)

val headers : t -> Label.Set.t

val is_simple : t -> loop -> bool
(** Exactly one latch (one back edge). *)

val is_unrollable : Func.t -> t -> loop -> bool
(** Simple, and no block of the body ends in [Call], [Ret] or [Halt]:
    calls force region boundaries anyway, so unrolling across them buys
    nothing. *)

val static_trip_count : Func.t -> loop -> int option
(** Best-effort constant trip count: recognized when the header compares an
    induction register against an immediate and the single latch increments
    it by an immediate. This mirrors what "traditional unrolling" (Figure
    2b) requires; [None] means the count is compile-time-unknown and only
    speculative unrolling applies. *)
