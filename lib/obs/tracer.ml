(* Span tracing over simulated time: begin/end spans with nested scopes
   and instant events, carried per track (one track per core plus one for
   the proxy path), exportable as Chrome trace-event JSON that loads in
   Perfetto / chrome://tracing.

   Timestamps are simulator cycles, never wall-clock, so a trace of a
   deterministic run is itself deterministic — the property the obs
   smoke test checks byte-for-byte across --jobs settings. Events are
   kept in recording order (the executor's scheduling order, which is
   deterministic); the exporter does not re-sort. Perfetto sorts on
   load, and the {!validate} well-formedness check is per-track.

   Storage is columnar so that recording allocates nothing per event:
   one row per event in four growable arrays (track and phase packed
   into one tag, name, timestamp, first argument), one row per argument
   in three more (key, string value, int value). An int argument stays
   an int until {!events} or {!to_chrome_json} prints it. Each track's
   well-formedness state — open-span depth, last and largest B/E
   timestamp — and the first violation are updated as events arrive, so
   {!validate} and {!close_open} cost one pass over the tracks, not over
   the history. *)

type track = Core of int | Proxy | Request of int

type phase = B | E | I

type event = {
  track : track;
  phase : phase;
  name : string;
  ts : int;
  args : (string * string) list;
}

(* A track's well-formedness state. Before the first violation [depth]
   is the track's open-span count; the raw B-minus-E count is what
   {!close_open} closes. *)
type lane = {
  owner : track;
  mutable depth : int;
  mutable last : int;  (* most recent B/E timestamp *)
  mutable peak : int;  (* largest B/E timestamp *)
}

(* Marks a lanes slot no event has used yet; never mutated. *)
let no_lane = { owner = Proxy; depth = 0; last = min_int; peak = min_int }

(* The string column's entry for an int argument, told apart by
   physical identity: it is allocated here and never handed out. *)
let int_value = String.make 1 '#'

type t = {
  enabled : bool;
  (* one row per event *)
  mutable tags : int array;  (* lane index lsl 2 lor phase code *)
  mutable names : string array;
  mutable stamps : int array;
  mutable first_arg : int array;  (* the event's arguments start here *)
  mutable count : int;
  (* one row per argument, events' arguments in recording order *)
  mutable keys : string array;
  mutable strs : string array;
  mutable ints : int array;
  mutable nargs : int;
  mutable lanes : lane array;  (* by {!lane_index}; [no_lane] if unused *)
  mutable fault : string option;  (* the first well-formedness violation *)
  mutable origin : int;
  mutable max_ts : int;
}

let make enabled ~cap =
  {
    enabled;
    tags = Array.make cap 0;
    names = Array.make cap "";
    stamps = Array.make cap 0;
    first_arg = Array.make cap 0;
    count = 0;
    keys = Array.make cap "";
    strs = Array.make cap "";
    ints = Array.make cap 0;
    nargs = 0;
    lanes = [||];
    fault = None;
    origin = 0;
    max_ts = min_int;
  }

(* The columns double from 64 rows; the null tracer never records. *)
let create () = make true ~cap:64
let null = make false ~cap:0
let enabled t = t.enabled

let set_origin t n = if t.enabled then t.origin <- n
let origin t = t.origin
let max_ts t = t.max_ts
let count t = t.count

(* Tracks index the lanes densely: the proxy first, then core and
   request tracks interleaved by core, so the table is as long as twice
   the largest core index seen. *)
let lane_index = function
  | Proxy -> 0
  | Core c ->
    if c < 0 then invalid_arg "Tracer: negative core index";
    (2 * c) + 1
  | Request c ->
    if c < 0 then invalid_arg "Tracer: negative core index";
    (2 * c) + 2

let phase_code = function B -> 0 | E -> 1 | I -> 2
let phase_of_tag tag = match tag land 3 with 0 -> B | 1 -> E | _ -> I

let track_name = function
  | Core c -> Printf.sprintf "core %d" c
  | Proxy -> "proxy"
  | Request c -> Printf.sprintf "core %d requests" c

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let lane t i track =
  if i >= Array.length t.lanes then
    t.lanes <- extend t.lanes (max (i + 1) (2 * Array.length t.lanes)) no_lane;
  let l = Array.unsafe_get t.lanes i in
  if l != no_lane then l
  else begin
    let l = { owner = track; depth = 0; last = min_int; peak = min_int } in
    t.lanes.(i) <- l;
    l
  end

let fail t msg = match t.fault with None -> t.fault <- Some msg | Some _ -> ()

(* The checks {!validate} reports, in the order the event list used to
   be scanned: the first violation in recording order wins, and an [E]
   on an empty track is reported as unmatched even when it also runs
   backwards. *)
let check t l phase ts =
  match phase with
  | B ->
    if ts < l.last then
      fail t
        (Printf.sprintf "non-monotone B ts %d (< %d) on %s" ts l.last
           (track_name l.owner))
  | E ->
    if l.depth <= 0 then
      fail t (Printf.sprintf "E without matching B on %s" (track_name l.owner))
    else if ts < l.last then
      fail t
        (Printf.sprintf "non-monotone E ts %d (< %d) on %s" ts l.last
           (track_name l.owner))
  | I -> ()

let record t track phase name ts =
  let i = lane_index track in
  let l = lane t i track in
  (match phase with
   | I -> ()
   | B | E ->
     (match t.fault with None -> check t l phase ts | Some _ -> ());
     l.depth <- (match phase with B -> l.depth + 1 | E | I -> l.depth - 1);
     l.last <- ts;
     if ts > l.peak then l.peak <- ts;
     if ts > t.max_ts then t.max_ts <- ts);
  let n = t.count in
  if n = Array.length t.tags then begin
    let cap = 2 * n in
    t.tags <- extend t.tags cap 0;
    t.names <- extend t.names cap "";
    t.stamps <- extend t.stamps cap 0;
    t.first_arg <- extend t.first_arg cap 0
  end;
  t.tags.(n) <- (i lsl 2) lor phase_code phase;
  t.names.(n) <- name;
  t.stamps.(n) <- ts;
  t.first_arg.(n) <- t.nargs;
  t.count <- n + 1

let push_arg t key s v =
  let n = t.nargs in
  if n = Array.length t.keys then begin
    let cap = 2 * n in
    t.keys <- extend t.keys cap "";
    t.strs <- extend t.strs cap "";
    t.ints <- extend t.ints cap 0
  end;
  t.keys.(n) <- key;
  t.strs.(n) <- s;
  t.ints.(n) <- v;
  t.nargs <- n + 1

let rec push_args t = function
  | [] -> ()
  | (k, v) :: rest ->
    push_arg t k v 0;
    push_args t rest

let record_with t track phase name ts args =
  if t.enabled then begin
    record t track phase name (ts + t.origin);
    push_args t args
  end

let begin_span ?(args = []) t ~track ~name ~ts =
  record_with t track B name ts args

let end_span ?(args = []) t ~track ~ts = record_with t track E "" ts args

let instant ?(args = []) t ~track ~name ~ts =
  record_with t track I name ts args

let int_arg t key v =
  if t.enabled then begin
    if t.count = 0 then invalid_arg "Tracer.int_arg: no event recorded";
    push_arg t key int_value v
  end

(* ---------------- reading the columns ---------------- *)

let lane_of t i = t.lanes.(t.tags.(i) lsr 2)
let args_end t i = if i + 1 < t.count then t.first_arg.(i + 1) else t.nargs

let arg_string t j =
  let s = t.strs.(j) in
  if s == int_value then string_of_int t.ints.(j) else s

let event_args t i =
  List.init
    (args_end t i - t.first_arg.(i))
    (fun k ->
      let j = t.first_arg.(i) + k in
      (t.keys.(j), arg_string t j))

let events t =
  List.init t.count (fun i ->
      {
        track = (lane_of t i).owner;
        phase = phase_of_tag t.tags.(i);
        name = t.names.(i);
        ts = t.stamps.(i);
        args = event_args t i;
      })

let fold_int_arg t ~key f init =
  let acc = ref init in
  for i = 0 to t.count - 1 do
    let hi = args_end t i in
    let j = ref t.first_arg.(i) in
    while !j < hi do
      if String.equal t.keys.(!j) key then begin
        let s = t.strs.(!j) in
        let v = if s == int_value then t.ints.(!j) else int_of_string s in
        acc :=
          f (lane_of t i).owner (phase_of_tag t.tags.(i)) t.names.(i) v !acc;
        j := hi
      end
      else incr j
    done
  done;
  !acc

(* Close every span left open at a crash instant. A crash tears the
   machine down mid-region, which would otherwise leave dangling B
   events on the core tracks (and non-balanced traces that fail
   {!validate}). Each open span is closed at the later of the crash
   timestamp and the track's own largest B/E timestamp, so the synthetic
   E events stay monotone even on tracks whose clock had already
   advanced past the crashing thread's cycle. Tracks are visited in
   [compare] order of their {!track} values — deterministic output for
   the --jobs smokes. *)
let close_open t ~ts =
  if t.enabled then begin
    let ts = ts + t.origin in
    Array.fold_left
      (fun acc l -> if l != no_lane && l.depth > 0 then l :: acc else acc)
      [] t.lanes
    |> List.sort (fun a b -> compare a.owner b.owner)
    |> List.iter (fun l ->
           let close_ts = max ts l.peak in
           for _ = 1 to l.depth do
             record t l.owner E "" close_ts;
             push_arg t "closed_by" "crash" 0
           done)
  end

(* ---------------- validation ---------------- *)

(* Well-formedness of the track structure: every E closes an open B on
   its track, every B is eventually closed, and B/E timestamps per track
   are monotone (each core's clock only moves forward; instants are
   exempt — proxy-path arrivals are timestamped with controller time,
   which interleaves across the cores' clocks). The first two are
   checked as events arrive; only the open spans are left to count. *)
let validate t =
  match t.fault with
  | Some msg -> Error msg
  | None -> (
    match
      Array.find_opt (fun l -> l != no_lane && l.depth > 0) t.lanes
    with
    | None -> Ok ()
    | Some l ->
      Error
        (Printf.sprintf "%d unclosed span(s) on %s" l.depth
           (track_name l.owner)))

(* ---------------- Chrome trace-event export ---------------- *)

(* tid layout: cores at their own index, the proxy path on a high tid so
   it sorts after them, request-lifecycle tracks higher still;
   thread_name metadata labels all three. *)
let proxy_tid = 1000

let tid = function Core c -> c | Proxy -> proxy_tid | Request c -> 2000 + c

let args_json t i =
  let buf = Buffer.create 32 in
  Buffer.add_char buf '{';
  for j = t.first_arg.(i) to args_end t i - 1 do
    if j > t.first_arg.(i) then Buffer.add_char buf ',';
    Printf.bprintf buf "\"%s\":\"%s\"" (Metrics.json_escape t.keys.(j))
      (Metrics.json_escape (arg_string t j))
  done;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf line
  in
  (* Metadata rows: name every track that carries at least one event. *)
  Array.to_list t.lanes
  |> List.filter (fun l -> l != no_lane)
  |> List.map (fun l -> l.owner)
  |> List.sort (fun a b -> Int.compare (tid a) (tid b))
  |> List.iter (fun tr ->
         let name =
           match tr with
           | Core c -> Printf.sprintf "core %d" c
           | Proxy -> "proxy path"
           | Request c -> Printf.sprintf "core %d requests" c
         in
         emit
           (Printf.sprintf
              "  {\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\
               \"args\":{\"name\":\"%s\"}}"
              (tid tr) (Metrics.json_escape name)));
  for i = 0 to t.count - 1 do
    let common =
      Printf.sprintf "\"pid\":1,\"tid\":%d,\"ts\":%d"
        (tid (lane_of t i).owner) t.stamps.(i)
    in
    match phase_of_tag t.tags.(i) with
    | B ->
      emit
        (Printf.sprintf
           "  {\"ph\":\"B\",%s,\"name\":\"%s\",\"cat\":\"capri\",\"args\":%s}"
           common
           (Metrics.json_escape t.names.(i))
           (args_json t i))
    | E -> emit (Printf.sprintf "  {\"ph\":\"E\",%s}" common)
    | I ->
      emit
        (Printf.sprintf
           "  {\"ph\":\"i\",%s,\"name\":\"%s\",\"cat\":\"capri\",\"s\":\"t\",\
            \"args\":%s}"
           common
           (Metrics.json_escape t.names.(i))
           (args_json t i))
  done;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf
