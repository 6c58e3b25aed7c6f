(** Paged per-line int records: [width] ints for every cache line, in
    pages of at most 256 ints allocated on first touch. Negative lines
    are indexed like {!Memory}'s. The persist engine keeps its per-word
    NVM version stamps and its conflict-fence counts here. *)

type t

val create : width:int -> init:int -> t
(** Every int of a freshly touched page starts at [init]. *)

val absent : int array
(** What {!find} returns for a page never touched (compare with [==]). *)

val find : t -> int -> int array
(** The page holding the line, or {!absent}; never allocates. *)

val page : t -> int -> int array
(** The page holding the line, allocated on first touch. *)

val offset : t -> int -> int
(** Index of the line's first int within its page. *)

val reset : t -> unit
(** Drop every page. *)
