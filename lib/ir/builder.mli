(** Imperative construction DSL for programs.

    The workload suite and the tests build IR through this module. A
    program builder allocates data-segment addresses; each function builder
    keeps an insertion point and closes the current block whenever a
    terminator is emitted.

    {[
      let b = Builder.create () in
      let arr = Builder.alloc b ~words:64 in
      let f = Builder.func b "main" in
      let loop = Builder.block f "loop" in
      Builder.li f r0 0;
      Builder.jump f loop;
      Builder.switch f loop;
      Builder.store f ~base:r1 (Builder.reg r0);
      ...
      Builder.halt f;
      let program = Builder.finish b ~main:"main"
    ]} *)

type t
type fb

val create : unit -> t

val alloc : t -> words:int -> int
(** Reserve [words] consecutive data words; returns the base address (in
    words). Addresses start at {!data_base} and successive allocations are
    padded to cache-line (8-word) boundaries so distinct structures never
    share a line. *)

val data_base : int

val init_word : t -> addr:int -> int -> unit
(** Set an initial value for one data word. *)

val alloc_init : t -> int array -> int
(** Allocate and initialize in one step; returns the base address. *)

val alloc_blob : t -> int array -> int
(** Allocate and initialize a bulk segment; returns the base address.
    Unlike {!alloc_init} this records one [(base, words)] pair in
    {!Program.t.blobs} instead of one data-list cell per word — the
    scalable loader path for large preloaded stores (a million-key table
    is one array, not millions of cells). The array is shared with the
    program: the caller must not mutate it afterwards. *)

val extent : t -> int
(** Data words allocated so far (from {!data_base}); lets callers check
    a planned store against {!Capri_runtime}'s heap bound before
    building it. *)

val func : t -> string -> fb
(** Start a function; the insertion point is its fresh entry block. *)

val finish : t -> main:string -> Program.t
(** Validates the result with {!Validate.check_exn}. Raises
    [Invalid_argument] if any function still has an open block. *)

(** {1 Operands} *)

val reg : Reg.t -> Instr.operand
val imm : int -> Instr.operand

(** {1 Blocks} *)

val block : fb -> string -> Label.t
(** Declare a (not yet filled) block with a fresh label derived from the
    given base name. *)

val switch : fb -> Label.t -> unit
(** Move the insertion point to a declared, still-open block. The previous
    block must have been closed by a terminator. *)

val current : fb -> Label.t

(** {1 Instructions} *)

val binop : fb -> Instr.binop -> Reg.t -> Instr.operand -> Instr.operand -> unit
val li : fb -> Reg.t -> int -> unit
val mv : fb -> Reg.t -> Reg.t -> unit
val add : fb -> Reg.t -> Instr.operand -> Instr.operand -> unit
val sub : fb -> Reg.t -> Instr.operand -> Instr.operand -> unit
val mul : fb -> Reg.t -> Instr.operand -> Instr.operand -> unit
val load : fb -> Reg.t -> base:Reg.t -> ?off:int -> unit -> unit
val store : fb -> base:Reg.t -> ?off:int -> Instr.operand -> unit
val atomic_rmw :
  fb -> Instr.binop -> Reg.t -> base:Reg.t -> ?off:int -> Instr.operand ->
  unit
val fence : fb -> unit
val out : fb -> Instr.operand -> unit

(** {1 Terminators} *)

val jump : fb -> Label.t -> unit
val branch : fb -> Instr.operand -> Label.t -> Label.t -> unit
val call : fb -> string -> ret_to:Label.t -> unit
val call_cont : fb -> string -> unit
(** [call_cont f callee] calls and continues in a fresh fall-through block,
    switching the insertion point to it. *)

val ret : fb -> unit
val halt : fb -> unit
