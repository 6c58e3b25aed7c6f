(** Address-space layout of the simulated machine (word addresses).

    Stacks sit below the data segment, one per core, growing downward;
    {!Capri_ir.Builder.alloc} hands out data addresses from
    [Builder.data_base] upward. The checkpoint slot arrays and per-core
    resume records are dedicated NVM structures owned by {!Capri_arch.Persist}
    and are not part of the word address space. *)

val stack_words_per_core : int
val stack_top : core:int -> int
(** Initial stack pointer for a core (exclusive top; pushes pre-decrement). *)

val stack_range : core:int -> int * int
(** [(bottom, top)] of a core's stack: pushes live in [\[bottom, top)].
    Ranges of distinct cores are disjoint, and every range lies below
    {!heap_base}. *)

val heap_base : int
(** First data-segment address (= [Builder.data_base]); every
    {!Capri_ir.Builder.alloc} result is at or above it, so heaps never
    collide with any core's stack. *)

val heap_words : int
(** Modeled NVM data-segment capacity in words (64 M words = 512 MiB):
    big enough for ~16 million-key shard tables at two words per slot
    and 2x slots per key. Paged memory is sparse, so an emptier store
    costs only its occupancy; this bound is what the layout guarantees
    free of stacks and per-core structures. *)

val max_cores : int
(** Cores whose stacks fit between address 0 and {!heap_base}. *)

val check_cores : int -> unit
(** Raises [Invalid_argument] when a core count's stacks would underflow
    the address space (or is non-positive). The message names the count
    and the supported range, fit for a front end to prefix with the flag
    that asked for it. *)

val check_heap : words:int -> unit
(** Raises [Invalid_argument] when an allocation plan
    ({!Capri_ir.Builder.extent}) exceeds {!heap_words}. *)
