(* Metrics registry: named counters, gauges and fixed-bucket histograms
   with labels, snapshot-able to a deterministic JSON document.

   Instruments (Counter.t etc.) are plain mutable records, so the hot
   path pays a field write whether or not the owning registry is enabled.
   Registration is where enablement matters: a disabled registry (the
   [null] sink) hands out fresh unregistered instruments — they still
   count, their owner can still read them back (Persist's [stats] view
   relies on this), but no snapshot ever walks them. An enabled registry
   interns instruments by (name, labels), so two components asking for
   the same series share one cell and snapshots merge for free.

   Determinism contract: [to_json] sorts every series by (name, labels)
   and prints only integers, so two registries that received the same
   increments — in any order, from any number of domains as long as each
   instrument is touched by one domain at a time — render byte-identical
   documents. [merge_into] is commutative for counters and histograms,
   which is what lets the bench harness fold per-measurement registries
   together under any --jobs schedule. *)

type labels = (string * string) list

let canon_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

module Counter = struct
  type t = { mutable v : int }

  let make () = { v = 0 }
  let inc t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
  let set t n = t.v <- n
end

module Gauge = struct
  type t = { mutable g : int }

  let make () = { g = 0 }
  let set t n = t.g <- n
  let max_to t n = if n > t.g then t.g <- n
  let value t = t.g
end

module Histogram = struct
  (* [bounds] are inclusive upper bounds of the first n buckets; one
     implicit overflow bucket catches everything above the last bound. *)
  type t = {
    bounds : int array;
    counts : int array;  (* length = Array.length bounds + 1 *)
    mutable count : int;
    mutable sum : int;
    mutable vmin : int;
    mutable vmax : int;
  }

  let fixed bounds =
    let bounds = Array.of_list (List.sort_uniq Int.compare bounds) in
    {
      bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      count = 0;
      sum = 0;
      vmin = max_int;
      vmax = min_int;
    }

  (* Log2 buckets with upper bounds 0, 1, 2, 4, ..., 2^(n-1): the shape
     the region store-count distributions use. *)
  let log2 ~buckets =
    fixed (List.init (max 1 buckets) (fun i -> if i = 0 then 0 else 1 lsl (i - 1)))

  (* The first bucket whose bound holds [v]; top level, so an
     observation builds no closure. *)
  let rec bucket bounds v i =
    if i >= Array.length bounds || v <= bounds.(i) then i
    else bucket bounds v (i + 1)

  let observe t v =
    let i = bucket t.bounds v 0 in
    t.counts.(i) <- t.counts.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.count
  let sum t = t.sum

  (* Nearest-rank quantile estimate from the bucket counts: the upper
     bound of the bucket holding the q-th ranked observation, capped at
     the observed maximum (so the overflow bucket answers [vmax] rather
     than infinity). Integer in, integer out — deterministic. *)
  let quantile t q =
    if t.count = 0 then 0
    else begin
      let rank =
        max 1 (min t.count (int_of_float (ceil (q /. 100.0 *. float_of_int t.count))))
      in
      let n = Array.length t.bounds in
      let rec find i cum =
        if i >= n then t.vmax
        else
          let cum = cum + t.counts.(i) in
          if cum >= rank then min t.bounds.(i) t.vmax else find (i + 1) cum
      in
      max t.vmin (find 0 0)
    end

  let merge_into ~dst src =
    if dst.bounds <> src.bounds then
      invalid_arg "Metrics.Histogram.merge_into: bucket shapes differ";
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum + src.sum;
    if src.count > 0 then begin
      if src.vmin < dst.vmin then dst.vmin <- src.vmin;
      if src.vmax > dst.vmax then dst.vmax <- src.vmax
    end
end

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type t = {
  enabled : bool;
  items : (string * labels, instrument) Hashtbl.t;
}

let create () = { enabled = true; items = Hashtbl.create 64 }
let null = { enabled = false; items = Hashtbl.create 0 }
let enabled t = t.enabled

let find_or_add t name labels build =
  let key = (name, canon_labels labels) in
  match Hashtbl.find_opt t.items key with
  | Some i -> i
  | None ->
    let i = build () in
    Hashtbl.replace t.items key i;
    i

let counter ?(labels = []) t name =
  if not t.enabled then Counter.make ()
  else
    match find_or_add t name labels (fun () -> C (Counter.make ())) with
    | C c -> c
    | G _ | H _ ->
      invalid_arg (Printf.sprintf "Metrics.counter: %s is not a counter" name)

let gauge ?(labels = []) t name =
  if not t.enabled then Gauge.make ()
  else
    match find_or_add t name labels (fun () -> G (Gauge.make ())) with
    | G g -> g
    | C _ | H _ ->
      invalid_arg (Printf.sprintf "Metrics.gauge: %s is not a gauge" name)

let histogram ?(labels = []) t name ~bounds =
  if not t.enabled then Histogram.fixed bounds
  else
    match find_or_add t name labels (fun () -> H (Histogram.fixed bounds)) with
    | H h -> h
    | C _ | G _ ->
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %s is not a histogram" name)

let log2_histogram ?(labels = []) t name ~buckets =
  if not t.enabled then Histogram.log2 ~buckets
  else
    match
      find_or_add t name labels (fun () -> H (Histogram.log2 ~buckets))
    with
    | H h -> h
    | C _ | G _ ->
      invalid_arg
        (Printf.sprintf "Metrics.log2_histogram: %s is not a histogram" name)

(* ---------------- snapshot ---------------- *)

let items_sorted t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.items []
  |> List.sort (fun ((n1, l1), _) ((n2, l2), _) ->
         match String.compare n1 n2 with
         | 0 -> compare l1 l2
         | c -> c)

let merge_into ~dst src =
  if dst.enabled then
    List.iter
      (fun ((name, labels), i) ->
        match i with
        | C c ->
          Counter.add (counter ~labels dst name) (Counter.value c)
        | G g ->
          Gauge.max_to (gauge ~labels dst name) (Gauge.value g)
        | H h ->
          let dh =
            histogram ~labels dst name ~bounds:(Array.to_list h.Histogram.bounds)
          in
          Histogram.merge_into ~dst:dh h)
      (items_sorted src)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let labels_json labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
         labels)
  ^ "}"

let to_json t =
  let buf = Buffer.create 4096 in
  let section tag pick render =
    let rows =
      List.filter_map
        (fun ((name, labels), i) ->
          Option.map (fun x -> (name, labels, x)) (pick i))
        (items_sorted t)
    in
    Buffer.add_string buf (Printf.sprintf "  \"%s\": [" tag);
    List.iteri
      (fun i (name, labels, x) ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf
          (Printf.sprintf "    {\"name\":\"%s\",\"labels\":%s,%s}"
             (json_escape name) (labels_json labels) (render x)))
      rows;
    Buffer.add_string buf (if rows = [] then "]" else "\n  ]")
  in
  Buffer.add_string buf "{\n";
  section "counters"
    (function C c -> Some c | G _ | H _ -> None)
    (fun c -> Printf.sprintf "\"value\":%d" (Counter.value c));
  Buffer.add_string buf ",\n";
  section "gauges"
    (function G g -> Some g | C _ | H _ -> None)
    (fun g -> Printf.sprintf "\"value\":%d" (Gauge.value g));
  Buffer.add_string buf ",\n";
  section "histograms"
    (function H h -> Some h | C _ | G _ -> None)
    (fun h ->
      let open Histogram in
      let cells = Buffer.create 128 in
      Array.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char cells ',';
          Buffer.add_string cells
            (Printf.sprintf "{\"le\":%d,\"count\":%d}" h.bounds.(i) c))
        (Array.sub h.counts 0 (Array.length h.bounds));
      if Array.length h.bounds > 0 then Buffer.add_char cells ',';
      Buffer.add_string cells
        (Printf.sprintf "{\"le\":\"+inf\",\"count\":%d}"
           h.counts.(Array.length h.bounds));
      Printf.sprintf
        "\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"buckets\":[%s]"
        h.count h.sum
        (if h.count = 0 then 0 else h.vmin)
        (if h.count = 0 then 0 else h.vmax)
        (Buffer.contents cells));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
