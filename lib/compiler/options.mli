(** Compilation options. The accumulative configurations of the paper's
    Figure 9 map onto these flags:

    - [region]: boundaries + region formation only ({!region_only})
    - [+ckpt]: plus register-checkpointing stores ({!up_to_ckpt})
    - [+unrolling]: plus speculative loop unrolling ({!up_to_unroll})
    - [+pruning]: plus optimal checkpoint pruning ({!up_to_prune})
    - [+licm]: plus checkpoint motion out of loops ({!all_opts}) *)

type t = {
  threshold : int;
      (** Maximum dynamic stores per region, checkpoints included
          (paper default 256). *)
  ckpt : bool;  (** Insert register-checkpointing stores. *)
  unroll : bool;  (** Speculative loop unrolling (Section 4.3). *)
  prune : bool;  (** Optimal checkpoint pruning (Section 4.4.1). *)
  licm : bool;  (** Checkpoint motion out of loops (Section 4.4.2). *)
  unroll_max : int;  (** Maximum speculative unroll factor. *)
  unroll_code_growth : int;
      (** Per-loop instruction budget after cloning. *)
  absorb_loops : bool;
      (** Merge whole loops with compile-time-known trip counts into
          enclosing regions when their total store count fits the
          threshold (the non-conservative case of Section 4.3). *)
  prune_region_limit : int;
      (** Largest previous-region size (instructions) considered for slice
          construction during pruning. *)
}

val default : t
(** All optimizations on, threshold 256. *)

val with_threshold : int -> t -> t

val region_only : t
val up_to_ckpt : t
val up_to_unroll : t
val up_to_prune : t
val all_opts : t

val fig9_configs : (string * t) list
(** The five accumulative configurations, labelled as in Figure 9. *)

val fig8_thresholds : int list
(** The region store thresholds Figure 8 sweeps: 32 to 1024. *)

val pp : Format.formatter -> t -> unit
