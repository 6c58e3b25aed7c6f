(** Multi-threaded kernels standing in for the Splash3 suite
    (Section 6.1). Every kernel runs [threads] workers (default 4), all
    executing the [worker] function with their thread id in r0;
    synchronization uses the atomic/fence primitives that Capri turns
    into region boundaries. *)

val barnes : ?threads:int -> scale:int -> unit -> Kernel.t
val fmm : ?threads:int -> scale:int -> unit -> Kernel.t
val ocean : ?threads:int -> scale:int -> unit -> Kernel.t
val radiosity : ?threads:int -> scale:int -> unit -> Kernel.t
val raytrace : ?threads:int -> scale:int -> unit -> Kernel.t
val volrend : ?threads:int -> scale:int -> unit -> Kernel.t
val water_nsquared : ?threads:int -> scale:int -> unit -> Kernel.t
val water_spatial : ?threads:int -> scale:int -> unit -> Kernel.t
val radix : ?threads:int -> scale:int -> unit -> Kernel.t
