(** Set-associative write-back cache, tags only.

    Load values come from the functional {!Memory} oracle; the hierarchy
    maintains a single-dirty-copy invariant, under which a dirty line's
    contents always equal the architectural memory's current contents, so
    caches need no data arrays. What matters architecturally is {e which}
    lines are resident/dirty and {e when} dirty lines are written back.

    Each set is one small int array (line, LRU stamp and dirty bit per
    way), allocated by the first insertion into the set. Nothing else
    allocates: a probe returns a way handle, and {!insert} returns its
    victim's line with the victim's dirty bit left in {!evicted_dirty}. *)

type t

val no_line : int
(** The line {!insert} returns when it evicted nothing. *)

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

val find : t -> int -> int
(** A handle on the way holding the line, or [-1] when it is not
    resident. *)

val mem : t -> int -> bool
val is_dirty : t -> int -> bool

val touch_way : t -> int -> dirty:bool -> unit
(** Mark a way returned by {!find} most-recently-used; optionally set its
    dirty bit. *)

val touch : t -> int -> dirty:bool -> unit
(** {!touch_way} by line; the line must be resident. *)

val insert : t -> int -> dirty:bool -> int
(** Allocate a line (must not be resident) in the first invalid way of
    its set, else in the least-recently-used way (the first one on ties).
    Returns the evicted line, or {!no_line} if the way was invalid. *)

val evicted_dirty : t -> bool
(** Whether the line the last {!insert} evicted was dirty. *)

val invalidate_way : t -> int -> bool
(** Invalidate a way returned by {!find}; returns whether it was dirty. *)

val invalidate : t -> int -> bool
(** Remove the line if resident; returns whether it was dirty. *)

val dirty_lines : t -> int list
val resident : t -> int
(** Number of resident lines. *)

type stats = { insertions : int; evictions : int; dirty_evictions : int }

val stats : t -> stats
(** Allocation/eviction counts since creation or the last {!reset}
    ([clear] does not reset them). The hierarchy publishes these per
    level into the metrics registry. *)

val clear : t -> unit
(** Invalidate every line. *)

val reset : t -> unit
(** The LRU clock and the counts back at zero: after {!clear}, the cache
    behaves as {!create} built it, and the sets it allocated stay
    allocated. *)
