(** Architectural (functional) memory: the oracle for load values.

    Word-addressed; words are grouped into {!Config.line_words}-word cache
    lines. Each line carries a monotonically increasing version bumped on
    every store — proxy entries and writebacks are stamped with it so the
    stale-read machinery can compare data ages exactly (see
    {!Persist}). *)

type t

val create : unit -> t
val read : t -> int -> int
val write : t -> int -> int -> unit

val line_of_addr : int -> int
val addr_of_line : int -> int

val line_snapshot : t -> int -> int array
(** Fresh copy of the line's current contents. *)

val blit_line : t -> int -> int array -> int -> unit
(** [blit_line t line dst off] copies the line's words (zeros if it was
    never written) into [dst] at [off], allocating nothing. *)

val line_equal : t -> t -> int -> bool
(** Whether the line holds the same words in both memories (absent
    words read as zero); compares in place. *)

val line_version : t -> int -> int
val write_line : t -> int -> int array -> unit
(** Overwrite a whole line (used to rebuild memory from NVM at
    recovery). *)

val write_line_masked : t -> int -> int array -> int -> unit
(** Overwrite only the words whose bit is set in the mask (bit [o] =
    word offset [o]); used for word-granular redo/undo application. *)

val write_line_masked_from : t -> int -> int array -> int -> int -> unit
(** [write_line_masked_from t line src off mask]: {!write_line_masked}
    with the line's words read from [src] starting at [off]. *)

val copy : t -> t

val clear : t -> unit
(** Every line absent again: zero words at version 0. The pages stay
    allocated for reuse. *)

val reload : t -> from:t -> unit
(** Make [t] equal to [from], words and line versions, in place: [from]'s
    pages are copied into the pages [t] already has (allocating only
    those it lacks), and [t]'s other pages are cleared. [from] is not
    modified. *)

val iter_lines : t -> (int -> int array -> unit) -> unit
(** Every written line with a fresh copy of its words. *)

val iter_line_data : t -> (int -> int array -> int -> unit) -> unit
(** Every written line as [f line data off]: its words are
    [data.(off)] .. [data.(off + line_words - 1)] of the page itself,
    valid only during the call; nothing is copied. *)

val equal : ?from:int -> t -> t -> bool
(** Line-wise equality, treating absent lines as zero. [from] restricts
    the comparison to word addresses at or above the given bound —
    used to ignore dead stack slots below the data segment, whose
    leftover return-address garbage legitimately differs between a
    source program and its compiled form. *)

val diff : ?from:int -> t -> t -> (int * int * int) list
(** [(word address, value in first, value in second)] for mismatching
    words, sorted; for test diagnostics. *)
