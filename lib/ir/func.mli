(** Functions: an entry label plus basic blocks in layout order, with
    label-indexed access. The structure stays consistent under the
    in-place rewrites done by the compiler passes. *)

type t

val create : name:string -> entry:Label.t -> Block.t list -> t
(** Raises [Invalid_argument] on duplicate labels or a missing entry
    block. *)

val name : t -> string
val entry : t -> Label.t
val blocks : t -> Block.t list
(** Layout order; the entry block is always first. The function keeps
    this list: a call allocates only to join on, in one copy, the blocks
    added since the last call, and never touches a list handed out. *)

val find : t -> Label.t -> Block.t
(** Raises [Not_found]. *)

val mem : t -> Label.t -> bool

val add_block : t -> Block.t -> unit
(** Appends to the layout; raises [Invalid_argument] on duplicates. *)

val insert_after : t -> Label.t -> Block.t -> unit
(** Inserts into the layout right after the given label (affects only
    listing/code-address order, not semantics). *)

val fresh_label : t -> string -> Label.t
(** A label not yet present in the function, derived from the base name. *)

val split_block : t -> Block.t -> at:int -> Label.t
(** [split_block f b ~at] moves instructions from index [at] (0-based, in
    [b.instrs]) onward, plus the terminator, into a fresh successor block;
    [b] then jumps to it. Returns the new block's label. [at] may equal the
    instruction count (splitting just before the terminator). *)

val instr_count : t -> int
val store_count : t -> int
val pp : Format.formatter -> t -> unit
