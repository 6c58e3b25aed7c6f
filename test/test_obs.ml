(* The observability layer: metrics registry semantics (interning,
   determinism, merge), tracer well-formedness, profiler joins, and the
   NVM line-write accounting invariant under fuzz-generated programs in
   every persistence mode. *)

open Capri
open Helpers
module Metrics = Capri_obs.Metrics
module Tracer = Capri_obs.Tracer
module Profiler = Capri_obs.Profiler
module Series = Capri_obs.Series
module Obs = Capri_obs.Obs
module Gen = Capri_workloads.Gen

(* ---------------- metrics registry ---------------- *)

let test_metrics_interning () =
  let m = Metrics.create () in
  let a = Metrics.counter m "x" ~labels:[ ("k", "v"); ("a", "b") ] in
  (* same series regardless of label order *)
  let b = Metrics.counter m "x" ~labels:[ ("a", "b"); ("k", "v") ] in
  Metrics.Counter.inc a;
  Metrics.Counter.add b 2;
  Alcotest.(check int) "shared cell" 3 (Metrics.Counter.value a);
  let c = Metrics.counter m "x" in
  Alcotest.(check int) "different labels, different cell" 0
    (Metrics.Counter.value c);
  Alcotest.check_raises "type clash"
    (Invalid_argument "Metrics.gauge: x is not a gauge") (fun () ->
      ignore (Metrics.gauge m "x"))

let test_metrics_null_invisible () =
  let g = Metrics.gauge Metrics.null "g" in
  Metrics.Gauge.set g 7;
  Alcotest.(check int) "cell still counts" 7 (Metrics.Gauge.value g);
  Alcotest.(check bool) "null disabled" false (Metrics.enabled Metrics.null);
  (* a second ask returns a fresh cell — nothing interned *)
  Alcotest.(check int) "not interned" 0
    (Metrics.Gauge.value (Metrics.gauge Metrics.null "g"))

let test_metrics_json_deterministic () =
  let build order =
    let m = Metrics.create () in
    List.iter
      (fun (name, labels, v) ->
        Metrics.Counter.add (Metrics.counter m name ~labels) v)
      order;
    let h = Metrics.log2_histogram m "h" ~buckets:6 in
    Metrics.Histogram.observe h 3;
    Metrics.Histogram.observe h 17;
    Metrics.to_json m
  in
  let rows =
    [ ("b", [ ("mode", "capri") ], 1); ("a", [], 2);
      ("b", [ ("mode", "volatile") ], 3) ]
  in
  Alcotest.(check string) "order independent" (build rows)
    (build (List.rev rows));
  Alcotest.(check string) "empty when disabled" (Metrics.to_json Metrics.null)
    (Metrics.to_json Metrics.null)

let test_metrics_merge_commutes () =
  let mk vs =
    let m = Metrics.create () in
    List.iter
      (fun (name, v) -> Metrics.Counter.add (Metrics.counter m name) v)
      vs;
    let h = Metrics.log2_histogram m "h" ~buckets:6 in
    List.iter (fun (_, v) -> Metrics.Histogram.observe h v) vs;
    m
  in
  let a () = mk [ ("x", 1); ("y", 2) ] in
  let b () = mk [ ("y", 5); ("z", 3) ] in
  let ab = Metrics.create () in
  Metrics.merge_into ~dst:ab (a ());
  Metrics.merge_into ~dst:ab (b ());
  let ba = Metrics.create () in
  Metrics.merge_into ~dst:ba (b ());
  Metrics.merge_into ~dst:ba (a ());
  Alcotest.(check string) "commutative" (Metrics.to_json ab)
    (Metrics.to_json ba)

(* ---------------- tracer ---------------- *)

let test_tracer_validate () =
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"outer" ~ts:0;
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"inner" ~ts:2;
  Tracer.instant tr ~track:Tracer.Proxy ~name:"commit" ~ts:1;
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:5;
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:9;
  (match Tracer.validate tr with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "valid trace rejected: %s" msg);
  let bad = Tracer.create () in
  Tracer.end_span bad ~track:(Tracer.Core 0) ~ts:1;
  Alcotest.(check bool) "unmatched E" true
    (Result.is_error (Tracer.validate bad));
  let open_b = Tracer.create () in
  Tracer.begin_span open_b ~track:(Tracer.Core 1) ~name:"x" ~ts:0;
  Alcotest.(check bool) "unclosed B" true
    (Result.is_error (Tracer.validate open_b));
  let backwards = Tracer.create () in
  Tracer.begin_span backwards ~track:(Tracer.Core 0) ~name:"x" ~ts:5;
  Tracer.end_span backwards ~track:(Tracer.Core 0) ~ts:3;
  Alcotest.(check bool) "non-monotone" true
    (Result.is_error (Tracer.validate backwards));
  (* null tracer records nothing *)
  Tracer.begin_span Tracer.null ~track:(Tracer.Core 0) ~name:"x" ~ts:0;
  Alcotest.(check int) "null drops" 0 (Tracer.count Tracer.null)

let test_tracer_chrome_json_shape () =
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"r\"1" ~ts:0
    ~args:[ ("k", "v") ];
  Tracer.instant tr ~track:Tracer.Proxy ~name:"commit" ~ts:3;
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:7;
  let json = Tracer.to_chrome_json tr in
  let count_char c = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 json in
  Alcotest.(check int) "balanced braces" (count_char '{') (count_char '}');
  Alcotest.(check int) "balanced brackets" (count_char '[') (count_char ']');
  let contains needle =
    let n = String.length json and m = String.length needle in
    let rec go i = i + m <= n && (String.sub json i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "names threads" true (contains "thread_name");
  Alcotest.(check bool) "escapes names" true (contains "r\\\"1");
  Alcotest.(check bool) "instant scope" true (contains "\"s\":\"t\"")

let test_tracer_origin_stitching () =
  (* Crash segments restart thread clocks at zero; the origin stitches
     them into one monotone timeline, and close_open balances the spans
     a crash interrupted. *)
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"r0" ~ts:0;
  Tracer.begin_span tr ~track:(Tracer.Core 1) ~name:"r1" ~ts:4;
  Tracer.end_span tr ~track:(Tracer.Core 1) ~ts:9;
  (* crash at cycle 6: core 0's span is dangling, core 1's track has
     already advanced to 9 — the synthetic E must not go backwards *)
  Tracer.close_open tr ~ts:6;
  Alcotest.(check int) "max_ts tracks span events" 9 (Tracer.max_ts tr);
  (match Tracer.validate tr with
   | Ok () -> ()
   | Error m -> Alcotest.failf "crash-closed trace rejected: %s" m);
  (* resume: new segment restarts at ts 0, origin jumps past everything *)
  Tracer.set_origin tr 100;
  Alcotest.(check int) "origin set" 100 (Tracer.origin tr);
  Tracer.begin_span tr ~track:(Tracer.Core 0) ~name:"r2" ~ts:0;
  Tracer.end_span tr ~track:(Tracer.Core 0) ~ts:5;
  (match Tracer.validate tr with
   | Ok () -> ()
   | Error m -> Alcotest.failf "stitched trace rejected: %s" m);
  Alcotest.(check int) "resumed span lands at origin" 105 (Tracer.max_ts tr);
  (* the close_open E carries its provenance *)
  let closed =
    List.filter
      (fun e ->
        e.Tracer.phase = Tracer.E
        && List.mem_assoc "closed_by" e.Tracer.args)
      (Tracer.events tr)
  in
  Alcotest.(check int) "one synthetic close" 1 (List.length closed)

let test_tracer_request_track () =
  let tr = Tracer.create () in
  Tracer.begin_span tr ~track:(Tracer.Request 1) ~name:"read" ~ts:2;
  Tracer.end_span tr ~track:(Tracer.Request 1) ~ts:8;
  (match Tracer.validate tr with
   | Ok () -> ()
   | Error m -> Alcotest.failf "request track rejected: %s" m);
  let json = Tracer.to_chrome_json tr in
  let contains needle =
    let n = String.length json and m = String.length needle in
    let rec go i = i + m <= n && (String.sub json i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "request tid namespace" true (contains "\"tid\":2001");
  Alcotest.(check bool) "request thread name" true (contains "core 1 requests")

(* The list-based tracer the columnar one replaced, kept as its model:
   one event record per call, consed onto a list that validation, crash
   closing and export re-read in recording order. [int_arg] appends to
   the newest event's arguments. *)
module Model = struct
  type t = {
    mutable rev_events : Tracer.event list;
    mutable count : int;
    mutable origin : int;
    mutable max_ts : int;
  }

  let create () = { rev_events = []; count = 0; origin = 0; max_ts = min_int }

  let record t (e : Tracer.event) =
    t.rev_events <- e :: t.rev_events;
    t.count <- t.count + 1;
    match e.Tracer.phase with
    | Tracer.B | Tracer.E ->
      if e.Tracer.ts > t.max_ts then t.max_ts <- e.Tracer.ts
    | Tracer.I -> ()

  let span t track phase name ts args =
    record t { Tracer.track; phase; name; ts = ts + t.origin; args }

  let int_arg t key v =
    match t.rev_events with
    | e :: rest ->
      t.rev_events <-
        { e with Tracer.args = e.Tracer.args @ [ (key, string_of_int v) ] }
        :: rest
    | [] -> invalid_arg "Model.int_arg"

  let events t = List.rev t.rev_events

  let close_open t ~ts =
    let ts = ts + t.origin in
    let tracks = Hashtbl.create 8 in
    List.iter
      (fun (e : Tracer.event) ->
        let depth, last =
          Option.value ~default:(0, min_int)
            (Hashtbl.find_opt tracks e.Tracer.track)
        in
        let last = max last e.Tracer.ts in
        match e.Tracer.phase with
        | Tracer.B -> Hashtbl.replace tracks e.Tracer.track (depth + 1, last)
        | Tracer.E -> Hashtbl.replace tracks e.Tracer.track (depth - 1, last)
        | Tracer.I -> ())
      (events t);
    Hashtbl.fold
      (fun tr (depth, last) acc ->
        if depth > 0 then (tr, depth, last) :: acc else acc)
      tracks []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    |> List.iter (fun (track, depth, last) ->
           for _ = 1 to depth do
             record t
               { Tracer.track; phase = Tracer.E; name = ""; ts = max ts last;
                 args = [ ("closed_by", "crash") ] }
           done)

  let track_name = function
    | Tracer.Core c -> Printf.sprintf "core %d" c
    | Tracer.Proxy -> "proxy"
    | Tracer.Request c -> Printf.sprintf "core %d requests" c

  (* [Ok ()] or the first error, and the number of tracks left open. *)
  let validate t =
    let tracks = Hashtbl.create 8 in
    let state track =
      match Hashtbl.find_opt tracks track with
      | Some s -> s
      | None ->
        let s = (ref 0, ref min_int) in
        Hashtbl.replace tracks track s;
        s
    in
    let err = ref None in
    List.iter
      (fun (e : Tracer.event) ->
        if !err = None then begin
          let depth, last = state e.Tracer.track in
          let name = track_name e.Tracer.track in
          match e.Tracer.phase with
          | Tracer.B ->
            if e.Tracer.ts < !last then
              err :=
                Some
                  (Printf.sprintf "non-monotone B ts %d (< %d) on %s"
                     e.Tracer.ts !last name);
            last := e.Tracer.ts;
            incr depth
          | Tracer.E ->
            if e.Tracer.ts < !last then
              err :=
                Some
                  (Printf.sprintf "non-monotone E ts %d (< %d) on %s"
                     e.Tracer.ts !last name);
            last := e.Tracer.ts;
            if !depth > 0 then decr depth
            else err := Some (Printf.sprintf "E without matching B on %s" name)
          | Tracer.I -> ()
        end)
      (events t);
    let open_tracks =
      Hashtbl.fold
        (fun tr (d, _) acc -> if !d > 0 then (tr, !d) :: acc else acc)
        tracks []
    in
    let verdict =
      match (!err, open_tracks) with
      | Some e, _ -> Error e
      | None, [] -> Ok ()
      | None, (tr, d) :: _ ->
        Error (Printf.sprintf "%d unclosed span(s) on %s" d (track_name tr))
    in
    (verdict, List.length open_tracks)

  (* The exporter, over the event list. *)
  let to_chrome_json t =
    let tid = function
      | Tracer.Core c -> c
      | Tracer.Proxy -> 1000
      | Tracer.Request c -> 2000 + c
    in
    let lines = ref [] in
    let emit l = lines := l :: !lines in
    let args_json args =
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\":\"%s\"" (Metrics.json_escape k)
                 (Metrics.json_escape v))
             args)
      ^ "}"
    in
    List.sort_uniq
      (fun a b -> Int.compare (tid a) (tid b))
      (List.map (fun (e : Tracer.event) -> e.Tracer.track) (events t))
    |> List.iter (fun tr ->
           let name =
             match tr with
             | Tracer.Core c -> Printf.sprintf "core %d" c
             | Tracer.Proxy -> "proxy path"
             | Tracer.Request c -> Printf.sprintf "core %d requests" c
           in
           emit
             (Printf.sprintf
                "  {\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\
                 \"args\":{\"name\":\"%s\"}}"
                (tid tr) (Metrics.json_escape name)));
    List.iter
      (fun (e : Tracer.event) ->
        let common =
          Printf.sprintf "\"pid\":1,\"tid\":%d,\"ts\":%d" (tid e.Tracer.track)
            e.Tracer.ts
        in
        emit
          (match e.Tracer.phase with
           | Tracer.B ->
             Printf.sprintf
               "  {\"ph\":\"B\",%s,\"name\":\"%s\",\"cat\":\"capri\",\
                \"args\":%s}"
               common
               (Metrics.json_escape e.Tracer.name)
               (args_json e.Tracer.args)
           | Tracer.E -> Printf.sprintf "  {\"ph\":\"E\",%s}" common
           | Tracer.I ->
             Printf.sprintf
               "  {\"ph\":\"i\",%s,\"name\":\"%s\",\"cat\":\"capri\",\
                \"s\":\"t\",\"args\":%s}"
               common
               (Metrics.json_escape e.Tracer.name)
               (args_json e.Tracer.args)))
      (events t);
    "{\"traceEvents\":[\n"
    ^ String.concat ",\n" (List.rev !lines)
    ^ "\n],\"displayTimeUnit\":\"ns\"}\n"
end

(* One call on both tracers. [End_open] ends a span on the track of the
   newest begin the harness saw still open (and does nothing when there
   is none), so that well-formed traces come up often; [End] may end
   nothing. *)
type trace_op =
  | Begin of Tracer.track * string * int * (string * string) list
  | End of Tracer.track * int
  | End_open of int
  | Instant of Tracer.track * string * int * (string * string) list
  | Int_arg of string * int
  | Origin of int
  | Close of int

let track_str = function
  | Tracer.Core c -> Printf.sprintf "Core %d" c
  | Tracer.Proxy -> "Proxy"
  | Tracer.Request c -> Printf.sprintf "Request %d" c

let op_str =
  let args a =
    String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) a)
  in
  function
  | Begin (tr, n, ts, a) ->
    Printf.sprintf "B %s %S %d [%s]" (track_str tr) n ts (args a)
  | End (tr, ts) -> Printf.sprintf "E %s %d" (track_str tr) ts
  | End_open ts -> Printf.sprintf "E-open %d" ts
  | Instant (tr, n, ts, a) ->
    Printf.sprintf "I %s %S %d [%s]" (track_str tr) n ts (args a)
  | Int_arg (k, v) -> Printf.sprintf "int_arg %S %d" k v
  | Origin n -> Printf.sprintf "origin %d" n
  | Close ts -> Printf.sprintf "close_open %d" ts

let trace_ops_gen =
  let open QCheck.Gen in
  let track =
    frequency
      [
        (4, map (fun c -> Tracer.Core c) (int_bound 2));
        (1, return Tracer.Proxy);
        (2, map (fun c -> Tracer.Request c) (int_bound 2));
      ]
  in
  let word = oneofl [ "r"; "b7"; "x\"y"; "tab\t"; "" ] in
  let args = list_size (int_bound 2) (pair word word) in
  (* mostly forward in time, sometimes backwards *)
  let ts = frequency [ (15, int_range 0 6); (1, int_range (-4) (-1)) ] in
  let stamped = pair ts args in
  let op =
    frequency
      [
        (10, map3 (fun tr n (t, a) -> Begin (tr, n, t, a)) track word stamped);
        (1, map2 (fun tr t -> End (tr, t)) track ts);
        (8, map (fun t -> End_open t) ts);
        (4, map3 (fun tr n (t, a) -> Instant (tr, n, t, a)) track word stamped);
        (4, map2 (fun k v -> Int_arg (k, v)) word (int_range (-50) 5000));
        (1, map (fun n -> Origin n) (int_bound 40));
        (2, map (fun t -> Close t) ts);
      ]
  in
  list_size (int_bound 40) op

(* Apply [ops] to a tracer and the model; timestamps advance a shared
   clock by each op's delta, so a negative delta records a timestamp
   behind the previous one. *)
let drive_both ops =
  let tr = Tracer.create () and m = Model.create () in
  let clock = ref 0 and opened = ref [] in
  let at d =
    clock := max 0 (!clock + d);
    !clock
  in
  List.iter
    (fun op ->
      match op with
      | Begin (track, name, d, args) ->
        let ts = at d in
        Tracer.begin_span tr ~track ~name ~ts ~args;
        Model.span m track Tracer.B name ts args;
        opened := track :: !opened
      | End (track, d) ->
        let ts = at d in
        Tracer.end_span tr ~track ~ts;
        Model.span m track Tracer.E "" ts []
      | End_open d -> (
        match !opened with
        | [] -> ()
        | track :: rest ->
          opened := rest;
          let ts = at d in
          Tracer.end_span tr ~track ~ts;
          Model.span m track Tracer.E "" ts [])
      | Instant (track, name, d, args) ->
        let ts = at d in
        Tracer.instant tr ~track ~name ~ts ~args;
        Model.span m track Tracer.I name ts args
      | Int_arg (key, v) ->
        if Tracer.count tr > 0 then begin
          Tracer.int_arg tr key v;
          Model.int_arg m key v
        end
      | Origin n ->
        Tracer.set_origin tr n;
        m.Model.origin <- n
      | Close d ->
        let ts = at d in
        Tracer.close_open tr ~ts;
        Model.close_open m ~ts;
        opened := [])
    ops;
  (tr, m)

let prop_tracer_matches_model =
  QCheck.Test.make ~count:500 ~name:"columnar tracer == list model"
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map op_str ops))
       ~shrink:QCheck.Shrink.list trace_ops_gen)
    (fun ops ->
      let tr, m = drive_both ops in
      let verdict, open_tracks = Model.validate m in
      let same_verdict =
        match (Tracer.validate tr, verdict) with
        | Ok (), Ok () -> true
        | Error a, Error b ->
          (* which of several open tracks is named is unspecified *)
          String.equal a b || open_tracks > 1
        | Ok (), Error _ | Error _, Ok () -> false
      in
      (Tracer.events tr = Model.events m
      || QCheck.Test.fail_report "events differ")
      && (Tracer.count tr = m.Model.count
         || QCheck.Test.fail_report "count differs")
      && (Tracer.max_ts tr = m.Model.max_ts
         || QCheck.Test.fail_report "max_ts differs")
      && (String.equal (Tracer.to_chrome_json tr) (Model.to_chrome_json m)
         || QCheck.Test.fail_report "chrome json differs")
      && (same_verdict
         || QCheck.Test.fail_reportf "validate: %s vs model %s"
              (match Tracer.validate tr with Ok () -> "ok" | Error e -> e)
              (match verdict with Ok () -> "ok" | Error e -> e)))

(* ---------------- windowed series ---------------- *)

let test_series_windows () =
  let s = Series.create ~width:100 () in
  Alcotest.(check int) "empty" (-1) (Series.last_window s);
  Series.inc s ~ts:0 "ops";
  Series.inc s ~ts:99 "ops";
  Series.inc s ~ts:100 "ops";
  Series.add s ~ts:250 "ops" 3;
  Series.observe s ~ts:50 "lat" 7;
  Series.observe s ~ts:50 "lat" 100;
  Alcotest.(check int) "window 0" 2 (Series.counter s ~window:0 "ops");
  Alcotest.(check int) "window 1" 1 (Series.counter s ~window:1 "ops");
  Alcotest.(check int) "window 2" 3 (Series.counter s ~window:2 "ops");
  Alcotest.(check int) "absent cell" 0 (Series.counter s ~window:5 "ops");
  Alcotest.(check int) "negative ts clamps" 0 (Series.window_of s ~ts:(-7));
  Alcotest.(check int) "last window" 2 (Series.last_window s);
  Alcotest.(check (list string)) "names sorted" [ "lat"; "ops" ]
    (Series.names s);
  Alcotest.(check int) "p50 in bucket bounds" 8
    (Series.quantile s ~window:0 "lat" 50.0);
  Alcotest.(check int) "p99 capped at max" 100
    (Series.quantile s ~window:0 "lat" 99.0);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Series: ops is not a histogram") (fun () ->
      Series.observe s ~ts:0 "ops" 1);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Series.create: width must be positive") (fun () ->
      ignore (Series.create ~width:0 ()))

let test_series_merge_and_json () =
  let mk obs =
    let s = Series.create ~width:10 () in
    List.iter
      (fun (ts, name, v) ->
        if name = "lat" then Series.observe s ~ts name v
        else Series.add s ~ts name v)
      obs;
    s
  in
  let oa = [ (0, "ops", 1); (5, "lat", 3); (25, "ops", 2) ] in
  let ob = [ (3, "ops", 4); (25, "lat", 9); (5, "lat", 40) ] in
  let ab = mk oa in
  Series.merge_into ~dst:ab (mk ob);
  let ba = mk ob in
  Series.merge_into ~dst:ba (mk oa);
  Alcotest.(check string) "merge commutes (json)" (Series.to_json ab)
    (Series.to_json ba);
  let whole = mk (oa @ ob) in
  Alcotest.(check string) "split == whole" (Series.to_json whole)
    (Series.to_json ab);
  Alcotest.(check int) "merged counter" 5 (Series.counter ab ~window:0 "ops");
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Series.merge_into: window widths differ") (fun () ->
      Series.merge_into ~dst:(Series.create ~width:7 ()) ab);
  let json = Series.to_json whole in
  let count_char c =
    String.fold_left (fun n x -> if x = c then n + 1 else n) 0 json
  in
  Alcotest.(check int) "balanced braces" (count_char '{') (count_char '}');
  Alcotest.(check int) "balanced brackets" (count_char '[') (count_char ']')

(* ---------------- profiler ---------------- *)

(* One core, hand-placed boundaries: a store before the first boundary
   (its commit has no closed region behind it), region b3 with two
   stores, region b5 three times round a loop with one store each, and
   region b9 closed by the halt with the staged register file only. *)
let profiled_program =
  {|program (main = main)

func main (entry entry):
entry:
  r1 = mov 65536
  store [r1 + 0], 7
  boundary #3
  store [r1 + 1], 1
  store [r1 + 2], 2
  r2 = mov 3
  jump loop
loop:
  boundary #5
  store [r1 + 3], r2
  r2 = sub r2, 1
  branch r2 ? loop : done
done:
  r4 = mov 200
  jump spin
spin:
  r4 = sub r4, 1
  branch r4 ? spin : tail
tail:
  boundary #9
  halt
|}

let profiled_run mode =
  let program =
    match Parser.parse profiled_program with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e
  in
  let obs = Obs.create () in
  let s =
    Executor.start ~mode ~obs ~program
      ~threads:[ Executor.main_thread program ] ()
  in
  match Executor.run s with
  | Executor.Finished r ->
    let m = Metrics.create () in
    Profiler.publish obs.Obs.regions m;
    let counter name = Metrics.Counter.value (Metrics.counter m name) in
    (r, counter "regions_closed", counter "regions_committed")
  | Executor.Crashed _ -> Alcotest.fail "unexpected crash"

let row_view (r : Executor.region_row) =
  (r.Executor.id, r.Executor.executions, r.Executor.stores,
   r.Executor.ckpt_stores, r.Executor.commits)

let test_profiler_joins () =
  let rows_t = Alcotest.(list (pair (pair int int) (triple int int int))) in
  let view (r : Executor.result) =
    Array.to_list r.Executor.profile
    |> List.map (fun row ->
           let id, execs, stores, ckpts, commits = row_view row in
           ((id, execs), (stores, ckpts, commits)))
  in
  (* Naive_sync: each commit lands inside the boundary that closes its
     region, before the close reaches the row, and joins it all the
     same; the halt's checkpoint-only region commits too. *)
  let r, closed, committed = profiled_run Persist.Naive_sync in
  Alcotest.check rows_t "naive-sync rows"
    [ ((3, 1), (2, 0, 1)); ((5, 3), (3, 0, 3)); ((9, 1), (0, 32, 1)) ]
    (view r);
  let row id =
    List.find
      (fun (x : Executor.region_row) -> x.Executor.id = id)
      (Array.to_list r.Executor.profile)
  in
  Alcotest.(check bool) "boundary stall tallied to the closed region" true
    ((row 3).Executor.stall_cycles > 0);
  Alcotest.(check bool) "the commit landed within the boundary stall" true
    (let lat = (row 3).Executor.commit_latency in
     0 <= lat && lat <= (row 3).Executor.stall_cycles);
  Alcotest.(check bool) "commits write NVM lines" true
    ((row 3).Executor.nvm_lines > 0 && (row 9).Executor.nvm_lines > 0);
  (* the entry code's commit counts in no row and in no profiler count *)
  Alcotest.(check int) "entry commit counts nowhere"
    (r.Executor.persist_stats.Persist.commits - 1)
    committed;
  Alcotest.(check int) "profiler closes = rows" 5 closed;
  (* Capri: commits land after their closes; the halt region's commit
     is still on the path when the run finishes, so it never lands. *)
  let r, closed, committed = profiled_run Persist.Capri in
  Alcotest.check rows_t "capri rows"
    [ ((3, 1), (2, 0, 1)); ((5, 3), (3, 0, 3)); ((9, 1), (0, 32, 0)) ]
    (view r);
  Alcotest.(check int) "capri closes" 5 closed;
  Alcotest.(check int) "capri commits: the rows' and nothing else" 4 committed;
  Alcotest.(check int) "entry commit counts nowhere (capri)"
    (r.Executor.persist_stats.Persist.commits - 1)
    committed;
  (* Hot order: stall cycles, then NVM lines, then stores, descending,
     then the region name; a region that never closed is left out. *)
  let mk id ~executions ~stall ~nvm ~stores =
    { Executor.id; executions; instrs = 0; stores; max_stores = 0;
      ckpt_stores = 0; stall_cycles = stall; commits = 0;
      commit_latency = 0; nvm_lines = nvm }
  in
  let rows =
    [| mk 0 ~executions:2 ~stall:1 ~nvm:7 ~stores:12;
       mk 1 ~executions:1 ~stall:9 ~nvm:0 ~stores:1;
       mk 2 ~executions:0 ~stall:50 ~nvm:50 ~stores:50;
       mk 3 ~executions:1 ~stall:1 ~nvm:8 ~stores:0;
       mk 4 ~executions:1 ~stall:1 ~nvm:7 ~stores:13;
       mk 10 ~executions:1 ~stall:1 ~nvm:7 ~stores:12 |]
  in
  let names n =
    List.map
      (fun (r : Executor.region_row) -> Executor.region_name r.Executor.id)
      (Profile.hottest rows ~n)
  in
  Alcotest.(check (list string)) "hottest order"
    [ "b1"; "b3"; "b4"; "b0"; "b10" ] (names max_int);
  Alcotest.(check (list string)) "hottest n=1" [ "b1" ] (names 1);
  (* the table's footer counts the closed regions it left out *)
  let k = Capri_workloads.Suite.by_name ~scale:2 "radix" in
  let p =
    Profile.run ~jobs:1 ~modes:[ Persist.Capri ]
      ~options:(Options.with_threshold 64 Options.default)
      ~program:k.Capri_workloads.Kernel.program
      ~threads:k.Capri_workloads.Kernel.threads ()
  in
  let closed_regions =
    Array.fold_left
      (fun n (r : Executor.region_row) ->
        if r.Executor.executions > 0 then n + 1 else n)
      0
      (List.assoc Persist.Capri p.Profile.results).Executor.profile
  in
  Alcotest.(check bool) "several regions closed" true (closed_regions > 1);
  let table = Profile.render_top p ~n:1 in
  let needle = Printf.sprintf "(+%d more regions)" (closed_regions - 1) in
  Alcotest.(check bool) "truncation footer" true
    (let n = String.length table and m = String.length needle in
     let rec go i = i + m <= n && (String.sub table i m = needle || go (i + 1)) in
     go 0)

(* Every mode's run is profiled: its published close and commit counts
   are its own rows' totals. *)
let test_profile_every_mode () =
  let k = Capri_workloads.Suite.by_name ~scale:2 "radix" in
  let p =
    Profile.run ~jobs:1 ~options:(Options.with_threshold 64 Options.default)
      ~program:k.Capri_workloads.Kernel.program
      ~threads:k.Capri_workloads.Kernel.threads ()
  in
  List.iter
    (fun (mode, (r : Executor.result)) ->
      let counter name =
        Metrics.Counter.value
          (Metrics.counter p.Profile.metrics name
             ~labels:[ ("mode", Persist.mode_name mode) ])
      in
      let ctx what = Persist.mode_name mode ^ ": " ^ what in
      Alcotest.(check int) (ctx "regions_closed")
        r.Executor.region_stats.Executor.regions_executed
        (counter "regions_closed");
      Alcotest.(check int) (ctx "regions_committed")
        (Array.fold_left
           (fun n (row : Executor.region_row) -> n + row.Executor.commits)
           0 r.Executor.profile)
        (counter "regions_committed"))
    p.Profile.results;
  Alcotest.(check int) "five modes" 5 (List.length p.Profile.results)

(* ---------------- Persist stats invariant (fuzz) ---------------- *)

let check_stats_invariant ctx (p : Persist.stats) =
  let non_negative =
    [ ("entries_created", p.Persist.entries_created);
      ("entries_merged", p.Persist.entries_merged);
      ("commits", p.Persist.commits);
      ("boundaries_elided", p.Persist.boundaries_elided);
      ("ckpt_flushes", p.Persist.ckpt_flushes);
      ("redo_writes", p.Persist.redo_writes);
      ("redo_skipped_invalid", p.Persist.redo_skipped_invalid);
      ("redo_skipped_stale", p.Persist.redo_skipped_stale);
      ("scan_invalidations", p.Persist.scan_invalidations);
      ("window_invalidations", p.Persist.window_invalidations);
      ("store_stall_cycles", p.Persist.store_stall_cycles);
      ("boundary_stall_cycles", p.Persist.boundary_stall_cycles);
      ("nvm_line_writes", p.Persist.nvm_line_writes);
      ("nvm_writes_wb", p.Persist.nvm_writes_wb);
      ("nvm_writes_redo", p.Persist.nvm_writes_redo);
      ("nvm_writes_slot", p.Persist.nvm_writes_slot) ]
  in
  List.iter
    (fun (name, v) ->
      if v < 0 then Alcotest.failf "%s: %s negative (%d)" ctx name v)
    non_negative;
  Alcotest.(check int)
    (ctx ^ ": line writes categorized")
    p.Persist.nvm_line_writes
    (p.Persist.nvm_writes_wb + p.Persist.nvm_writes_redo
   + p.Persist.nvm_writes_slot)

let test_nvm_write_invariant_fuzz () =
  let seeds = [ 1; 7; 23; 42; 77; 1234; 9001 ] in
  List.iter
    (fun seed ->
      let cores = 1 + (seed mod 3) in
      let prog = Gen.generate ~cores seed in
      let program, threads = Gen.lower prog in
      let compiled = compile program in
      List.iter
        (fun mode ->
          let result = run ~mode ~threads compiled in
          check_stats_invariant
            (Printf.sprintf "seed %d %s" seed (Persist.mode_name mode))
            result.Executor.persist_stats)
        Persist.all_modes)
    seeds

let test_invariant_survives_crash_recovery () =
  (* The categorization must also hold for an engine that went through
     crash recovery (redo replay + slot restore). *)
  let program, _ = sum_program ~n:40 () in
  let compiled = compile program in
  let crashes = ref 0 in
  let on_crash (c : Executor.crash) _ =
    incr crashes;
    match c.Executor.image.Persist.resume.(0) with
    | Persist.Resume _ -> ()
    | Persist.Done | Persist.Never_started ->
      Alcotest.fail "the crash left no region to resume"
  in
  let r =
    Recovery.drive ~on_crash ~crash_at:[ 60 ] compiled
      (Recovery.machine compiled)
  in
  Alcotest.(check int) "one crash" 1 !crashes;
  check_stats_invariant "post-recovery" r.Executor.persist_stats

let suite =
  [
    Alcotest.test_case "metrics interning" `Quick test_metrics_interning;
    Alcotest.test_case "null registry invisible" `Quick
      test_metrics_null_invisible;
    Alcotest.test_case "json determinism" `Quick
      test_metrics_json_deterministic;
    Alcotest.test_case "merge commutes" `Quick test_metrics_merge_commutes;
    Alcotest.test_case "tracer validation" `Quick test_tracer_validate;
    Alcotest.test_case "chrome json shape" `Quick
      test_tracer_chrome_json_shape;
    Alcotest.test_case "tracer origin stitching" `Quick
      test_tracer_origin_stitching;
    Alcotest.test_case "request track" `Quick test_tracer_request_track;
    QCheck_alcotest.to_alcotest prop_tracer_matches_model;
    Alcotest.test_case "series windows" `Quick test_series_windows;
    Alcotest.test_case "series merge + json" `Quick test_series_merge_and_json;
    Alcotest.test_case "profiler joins" `Quick test_profiler_joins;
    Alcotest.test_case "profile: every mode's regions counted" `Quick
      test_profile_every_mode;
    Alcotest.test_case "nvm write invariant (fuzz, all modes)" `Quick
      test_nvm_write_invariant_fuzz;
    Alcotest.test_case "invariant after recovery" `Quick
      test_invariant_survives_crash_recovery;
  ]
