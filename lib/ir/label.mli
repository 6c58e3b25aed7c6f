(** Basic-block labels. Labels are interned strings, unique per function;
    {!Func.fresh_label} derives fresh ones for {!Builder} and the compiler
    passes. *)

type t = private string

val of_string : string -> t
val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
