(** Single-threaded kernels standing in for the paper's SPEC CPU2017
    selection (Section 6.1). Each mimics the structural features that
    drive Capri's behaviour in the original: store density, loop shapes
    (short/unknown-trip vs. counted), pointer chasing and call depth. *)

val mcf : scale:int -> Kernel.t
(** 505.mcf_r: network-simplex-like pointer chasing over a node ring;
    low store density, data-dependent chain lengths. *)

val deepsjeng : scale:int -> Kernel.t
(** 531.deepsjeng_r: recursive game-tree search with make/unmake stores
    and branchy evaluation. *)

val leela : scale:int -> Kernel.t
(** 541.leela_r: Monte-Carlo playouts with unknown-trip move loops and
    visit-count updates. *)

val namd : scale:int -> Kernel.t
(** 508.namd_r: per-atom force loops with very short data-dependent
    neighbour loops — the speculative-unrolling showcase. *)

val lbm : scale:int -> Kernel.t
(** 519.lbm_r: streaming stencil with high store density and short
    counted inner loops. *)
