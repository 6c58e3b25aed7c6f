(** Metrics registry: named counters, gauges and fixed-bucket histograms
    with labels, snapshot-able to a deterministic JSON document.

    Instruments are plain mutable cells — incrementing one is a field
    write, registry enabled or not. The registry only decides whether an
    instrument is {e interned}: an enabled registry returns one shared
    cell per (name, labels) pair and includes it in {!to_json}; the
    {!null} registry returns fresh, unregistered cells that still count
    but never appear in a snapshot. That is the "no-op sink behind one
    branch" the instrumented subsystems rely on to stay free when
    observability is off.

    {!to_json} sorts every series by (name, sorted labels) and prints
    integers only, so equal increment histories render byte-identical
    documents regardless of registration or execution order — the
    determinism contract the `--jobs` smoke tests enforce. *)

type labels = (string * string) list

module Counter : sig
  type t

  val make : unit -> t
  (** A standalone, unregistered counter. *)

  val inc : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val set : t -> int -> unit
end

module Gauge : sig
  type t

  val make : unit -> t
  val set : t -> int -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  val fixed : int list -> t
  (** Buckets with the given inclusive upper bounds (sorted and deduped),
      plus an implicit +inf overflow bucket. *)

  val log2 : buckets:int -> t
  (** Upper bounds 0, 1, 2, 4, ..., 2^(buckets-2), plus overflow. *)

  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int

  val quantile : t -> float -> int
  (** [quantile h q] with [q] in [\[0,100\]]: nearest-rank estimate from
      the bucket counts — the upper bound of the bucket holding the
      ranked observation, clamped into [\[min, max\]] of the observed
      values. 0 on an empty histogram. Deterministic. *)

  val merge_into : dst:t -> t -> unit
  (** Bucket-wise sum; raises [Invalid_argument] on shape mismatch. *)
end

type t

val create : unit -> t
(** A fresh enabled registry. *)

val null : t
(** The disabled registry: hands out functional but unregistered
    instruments, snapshots to an empty document. *)

val enabled : t -> bool

val counter : ?labels:labels -> t -> string -> Counter.t
val gauge : ?labels:labels -> t -> string -> Gauge.t
val histogram : ?labels:labels -> t -> string -> bounds:int list -> Histogram.t
val log2_histogram : ?labels:labels -> t -> string -> buckets:int -> Histogram.t
(** Find-or-create by (name, labels). Asking twice returns the same cell;
    asking with a different instrument type raises [Invalid_argument]. *)

val merge_into : dst:t -> t -> unit
(** Fold [src] into [dst]: counters and histograms add, gauges keep the
    maximum. Commutative and associative, so any fold order over a set of
    per-task registries produces the same [dst]. *)

val to_json : t -> string
(** Deterministic snapshot: series sorted by (name, labels), integers
    only. *)

val json_escape : string -> string
(** JSON string-body escaping (shared by the other exporters). *)
