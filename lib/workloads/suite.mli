(** Registry over the 19 kernels of the evaluation (5 SPEC CPU2017, 5
    STAMP, 9 Splash3), in the paper's Figure 8 ordering. *)

val all : ?threads:int -> scale:int -> unit -> Kernel.t list
(** Every kernel, built in order; [threads] sets the Splash3 kernels'
    core count (default 4). *)

val names : string list

val by_name : ?threads:int -> scale:int -> string -> Kernel.t
(** Builds that kernel alone. Raises [Not_found] for unknown names. *)

val of_suite : Kernel.suite -> scale:int -> Kernel.t list

val bench_scale : int
(** Scale used by the benchmark harness. *)

val test_scale : int
(** Small scale used by the test suite. *)
