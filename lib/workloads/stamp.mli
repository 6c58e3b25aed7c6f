(** Sequential kernels standing in for the STAMP benchmarks of the
    evaluation (the paper compiles STAMP as sequential programs,
    Section 6.1). *)

val genome : scale:int -> Kernel.t
(** genome: hash-set insertion of segment signatures (scatter stores,
    probe loops of unknown length). *)

val intruder : scale:int -> Kernel.t
(** intruder: packet reassembly — per-flow queues, branchy dispatch,
    moderate store density. *)

val labyrinth : scale:int -> Kernel.t
(** labyrinth: grid routing by breadth-first expansion — frontier queue
    plus visited marks (bursts of stores). *)

val ssca2 : scale:int -> Kernel.t
(** ssca2: graph kernel with very short scatter loops (a paper-highlighted
    unrolling winner). *)

val vacation : scale:int -> Kernel.t
(** vacation: reservation tables — binary-search-tree insert/lookup over
    an index, pointer allocation from a bump arena. *)
