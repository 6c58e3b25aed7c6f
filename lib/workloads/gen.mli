(** Random structured-program generator (promoted from the test tree).

    Used by the qcheck properties and by the crash-consistency fuzzer
    (`lib/fuzz`). Programs are generated as a small statement AST —
    terminating and valid by construction — and lowered to the IR. The
    AST is exposed so the fuzzer's shrinker can delete statements and
    re-lower, and so minimal reproducers can be pretty-printed.

    Multi-core generation: each thread owns a disjoint slice of the data
    array; a single shared word is updated only through commutative,
    associative atomics; threads never read each other's state. Final
    memory, per-core outputs and r0 are therefore deterministic under
    any interleaving — the property the differential and crash oracles
    rely on. *)

open Capri_ir

type stmt =
  | Arith of int * Instr.binop * int * int  (** dst, op, src reg, imm *)
  | Li of int * int
  | LoadArr of int * int  (** dst reg, index reg (mod slice size) *)
  | StoreArr of int * int  (** index reg, src reg *)
  | CountedLoop of int * stmt list  (** compile-time trip count *)
  | DataLoop of stmt list  (** trip count read from memory at run time *)
  | IfNz of int * stmt list * stmt list
  | Fence
  | AtomicAdd of int * int  (** private slice: index reg, amount *)
  | AtomicShared of Instr.binop * int
      (** cross-core shared word; op is commutative and associative *)
  | RmwSweep of int * int * int
      (** straight-line load-add-store over (words, stride, addend) slice
          words — no boundary triggers, so all its stores share one
          region; the pattern that makes recovery's undo pass matter *)
  | CallLeaf of int  (** argument register *)
  | Emit of int

type prog = {
  thread_stmts : stmt list list;  (** index 0 = main, then workers *)
  leaf_body : stmt list;
  array_words : int;  (** per-thread slice size; power of two *)
}

val generate : ?cores:int -> ?array_words:int -> int -> prog
(** Deterministic generation from a seed; [cores] threads (default 1).
    [array_words] sets the per-thread slice size (power of two, default
    32) — larger slices spread stores over more cache lines, forcing
    dirty writebacks of uncommitted data under small cache configs (the
    oracle-sensitivity tests rely on this). *)

val cores : prog -> int

val restrict : prog -> keep:int list list -> prog
(** Keep only the listed top-level statement indices of each thread
    (one index list per thread) — the shrinker's program reducer. *)

val lower : prog -> Program.t * Capri_runtime.Executor.thread_spec list
(** Lower to IR plus the matching thread specs (one per thread). *)

val program_of_seed : int -> Program.t
(** [fst (lower (generate seed))] — the single-threaded qcheck entry. *)

val pp_prog : Format.formatter -> prog -> unit
