(** Architectural registers.

    The IR models a fixed file of 32 integer registers, mirroring an
    ARMv8-like ISA. The Capri compiler checkpoints architectural registers
    into a fixed NVM array indexed by register number (Section 4.2), which
    is only possible because this set is statically bounded. *)

type t = private int

val count : int
(** Number of architectural registers (32). *)

val of_int : int -> t
(** Raises [Invalid_argument] outside [\[0, count)]. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val all : t list
(** All registers, in index order. *)

val sp : t
(** Stack-pointer register (r31), implicitly updated by call/return. *)

(** Register sets, held as a 32-bit mask: no operation allocates except
    [elements], which builds its list. Every traversal ([fold], [iter],
    [exists], [filter], [elements]) visits registers in ascending order,
    as [Set.Make (Int)] does, so code that emits one instruction per
    member emits them in the same order. *)
module Set : sig
  type elt = t
  type t

  val empty : t
  val is_empty : t -> bool
  val singleton : elt -> t
  val mem : elt -> t -> bool
  val add : elt -> t -> t
  val remove : elt -> t -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val equal : t -> t -> bool
  val cardinal : t -> int
  val elements : t -> elt list
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val iter : (elt -> unit) -> t -> unit
  val exists : (elt -> bool) -> t -> bool
  val filter : (elt -> bool) -> t -> t
end
