(** The region partition produced by region formation.

    A region is a single-entry subgraph of one function's CFG: it is
    entered only through its head block, whose first instruction is the
    region's [Boundary]. Region ids are unique across the program and equal
    the id carried by the head's [Boundary] instruction. *)

open Capri_ir

(** Why region formation placed the boundary that heads a region — the
    provenance [capri compile --explain] and the profiler's
    boundary-reason breakdown report. *)
type reason =
  | Entry  (** function entry *)
  | Call_return  (** return target of a call *)
  | Trigger  (** a fence or atomic heads the block (Section 4.2) *)
  | Loop_header  (** non-absorbed loop header *)
  | Threshold  (** extending the predecessor region would overflow the
                   store budget *)
  | Merge  (** predecessors lie in different regions (or are not all
               assigned yet in RPO) *)

val reason_name : reason -> string
(** Stable kebab-case name ("entry", "call-return", ...). *)

type region = {
  id : int;
  func : string;
  head : Label.t;
  members : Label.Set.t;  (** blocks of the region, head included *)
  static_store_bound : int;
      (** Compiler's bound on dynamic stores per execution of the region
          (checkpoint estimate included); must never be exceeded at run
          time — the back-end proxy buffer is sized from the threshold. *)
  reason : reason;  (** why this region's boundary exists *)
}

type t

val create : unit -> t
val add_region : t -> region -> unit
val set_block : t -> func:string -> Label.t -> int -> unit
(** Record that a block belongs to a region. *)

val region_count : t -> int
val regions : t -> region list
(** In ascending id order. *)

val find : t -> int -> region
val region_of_block : t -> func:string -> Label.t -> int
(** Raises [Not_found] for unassigned blocks. *)

val head_of : t -> int -> Label.t
val max_store_bound : t -> int
(** Largest [static_store_bound] across regions: what the back-end proxy
    must accommodate. *)

val reason_counts : t -> (reason * int) list
(** Region count per boundary reason, in the order {!reason} declares
    them (zero entries included). *)
