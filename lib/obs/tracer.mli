(** Span tracing over simulated time, exportable as Chrome trace-event
    JSON (loadable in Perfetto or chrome://tracing).

    Events live on tracks — one per core, one for the proxy path, and
    one request-lifecycle track per core — and are timestamped in
    simulator cycles, so traces of deterministic runs are deterministic.
    The {!null} tracer drops everything behind a single branch.

    Recording allocates nothing per event beyond the columns' occasional
    doubling: events are rows of growable flat arrays, an argument
    attached with {!int_arg} is stored as an int until {!events} or
    {!to_chrome_json} prints it (the caller's [?args] lists are the
    caller's allocation), and each track's open-span depth and last and
    largest span timestamps are kept up to date as events arrive, so
    {!validate} and {!close_open} cost one pass over the tracks. Core
    and request track indices must be non-negative; the per-track table
    is as long as twice the largest. *)

type track = Core of int | Proxy | Request of int
(** [Request c] is the request-lifecycle track for core [c]: one span
    per served request (admission to ack), synthesized by the serving
    layer. *)

type phase = B | E | I

type event = {
  track : track;
  phase : phase;
  name : string;
  ts : int;
  args : (string * string) list;
}

type t

val create : unit -> t
val null : t
val enabled : t -> bool

val begin_span :
  ?args:(string * string) list -> t -> track:track -> name:string -> ts:int ->
  unit
(** Open a span on [track] at cycle [ts]. Spans nest per track. *)

val end_span : ?args:(string * string) list -> t -> track:track -> ts:int -> unit
(** Close the innermost open span on [track]. *)

val instant :
  ?args:(string * string) list -> t -> track:track -> name:string -> ts:int ->
  unit
(** A zero-duration marker (fence retired, crash injected, ...). *)

val int_arg : t -> string -> int -> unit
(** [int_arg t key v] appends the argument [key = v] to the most recently
    recorded event, after its [?args]. The hot recorders use it to pass
    counts without building a list or a string; [v] is printed in
    decimal. A no-op on a disabled tracer; raises [Invalid_argument] when
    nothing has been recorded yet. *)

val events : t -> event list
(** All recorded events in recording order. *)

val fold_int_arg :
  t -> key:string -> (track -> phase -> string -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_int_arg t ~key f init] folds [f track phase name v] over the
    events that carry an argument [key], in recording order, without
    building the event list. [v] is the first such argument's value: an
    {!int_arg} as recorded, a string argument through [int_of_string]
    (which raises [Failure] on a non-integer). *)

val count : t -> int

val set_origin : t -> int -> unit
(** Trace-time offset added to every subsequently recorded timestamp.
    Crash/recovery segments restart their thread clocks at zero; setting
    the origin to the absolute resume cycle stitches the segments into
    one monotone timeline. Affects the trace only — never the
    simulation. *)

val origin : t -> int

val max_ts : t -> int
(** Largest B/E timestamp recorded so far (after origin adjustment);
    [min_int] when no span event has been recorded. *)

val close_open : t -> ts:int -> unit
(** Close every span still open, as of crash cycle [ts]: emits the
    matching [E] events (tagged [closed_by=crash]) at the later of [ts]
    and the track's own last span timestamp, keeping each track balanced
    and monotone across a crash boundary. *)

val validate : t -> (unit, string) result
(** Well-formedness: every [E] closes an open [B] on its track, no span
    is left open, and B/E timestamps are monotone per track. Instants
    are exempt from the monotonicity check. *)

val to_chrome_json : t -> string
(** Chrome trace-event JSON: thread_name metadata for each populated
    track, then the events in recording order. Deterministic for a
    deterministic event history. *)
