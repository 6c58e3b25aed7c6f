(** Windowed time series over simulated cycles.

    A series bins observations into fixed-width windows of simulated
    time ([window = ts / width]); each window holds named integer
    counters and log2 histograms. The serving layer builds per-window
    throughput, latency percentile, queue-depth and reject-rate series
    from run outcomes, so a crash shows up as a hole in the timeline
    instead of vanishing into a run-total mean.

    Determinism: {!to_json} and {!fold} order cells by (window, name)
    and print integers only, so equal observation histories render
    byte-identical documents; {!merge_into} is commutative and
    associative (counters and histogram buckets add), so per-task series
    fold identically under any [--jobs] schedule. *)

type t

val create : ?buckets:int -> width:int -> unit -> t
(** [width] is the window size in cycles (> 0); [buckets] the log2
    histogram bucket count every histogram series uses (default 28). Raises [Invalid_argument] on non-positive
    arguments. *)

val width : t -> int

val window_of : t -> ts:int -> int
(** The window index holding cycle [ts] (negative clamps to 0). *)

val inc : t -> ts:int -> string -> unit
val add : t -> ts:int -> string -> int -> unit
(** Bump the named counter in the window holding [ts]. Raises
    [Invalid_argument] if the name is already a histogram series. *)

val observe : t -> ts:int -> string -> int -> unit
(** Observe a value into the named log2 histogram in the window holding
    [ts]. Raises [Invalid_argument] if the name is already a counter. *)

val counter : t -> window:int -> string -> int
(** 0 when the cell is absent. *)

val histogram : t -> window:int -> string -> Metrics.Histogram.t option

val quantile : t -> window:int -> string -> float -> int
(** {!Metrics.Histogram.quantile} of the window's histogram; 0 when
    absent. *)

val last_window : t -> int
(** Highest populated window index, [-1] when empty. *)

val names : t -> string list
(** Distinct series names, sorted. *)

type cell = Cnt of int ref | Hist of Metrics.Histogram.t

val fold :
  t -> ('a -> window:int -> name:string -> cell -> 'a) -> 'a -> 'a
(** Over all cells in (window, name) order. *)

val merge_into : dst:t -> t -> unit
(** Counters and histograms add cell-wise. Raises [Invalid_argument] on
    width or bucket-shape mismatch. *)

val to_json : t -> string
(** One object per populated window, ascending, series sorted inside;
    histogram cells carry count/sum/p50/p99. Integers only. *)
