(* In-memory span recorder for the traced run.

   A span is opened and closed around one call into a library layer's
   public functions, from the benchmark's own code; the library itself
   is not instrumented. Each span records its layer (the module name),
   its name, the workload item it served (kernel x config, trial, ...),
   its parent, a monotonic start/end in nanoseconds and the minor-heap
   words allocated while it was open. Nothing is written until the run
   ends.

   A root span has layer "other": its self time is the benchmark's own
   code between layer calls, so the layers' self times plus "other" add
   up to the root's duration exactly. [analyse] checks that and that the
   intervals nest (children inside their parent, siblings disjoint). *)

let now () = Monotonic_clock.now ()

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  layer : string;
  name : string;
  item : string;
  t0 : int64;
  mutable t1 : int64;
  w0 : float;
  mutable w1 : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable open_ : span list;  (* innermost first *)
  mutable next : int;
}

let create () = { spans = []; open_ = []; next = 0 }

(* [f ()], recorded as a span when tracing is on; a plain call when off,
   so the untraced run pays nothing but the option match. *)
let record tr ~layer ~name ?(item = "") f =
  match tr with
  | None -> f ()
  | Some tr ->
    let parent = match tr.open_ with p :: _ -> p.id | [] -> -1 in
    let s =
      {
        id = tr.next;
        parent;
        layer;
        name;
        item;
        t0 = now ();
        t1 = 0L;
        w0 = Gc.minor_words ();
        w1 = 0.;
      }
    in
    tr.next <- tr.next + 1;
    tr.open_ <- s :: tr.open_;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now ();
        s.w1 <- Gc.minor_words ();
        tr.open_ <- List.tl tr.open_;
        tr.spans <- s :: tr.spans)

let root tr f = record tr ~layer:"other" ~name:"root" f

type summary = {
  wall_ns : int64;  (* duration of the root *)
  self_ns : (string * int64) list;
      (* per "layer.name", self time; "other" is the root's *)
  self_words : (string * float) list;  (* per "layer.name" *)
  layer_ns : (string * int64) list;  (* per layer, "other" included *)
  errors : string list;  (* nesting or conservation violations *)
}

let key s = if s.parent < 0 then "other" else s.layer ^ "." ^ s.name

(* Summarise the tree under the most recent root and forget every span
   recorded so far. *)
let analyse tr =
  let spans = List.rev tr.spans in
  tr.spans <- [];
  let roots = List.filter (fun s -> s.parent < 0) spans in
  let root =
    match List.rev roots with
    | r :: _ -> r
    | [] -> invalid_arg "Span.analyse: no root span"
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if tr.open_ <> [] then err "%d spans still open" (List.length tr.open_);
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let in_tree = Hashtbl.create 64 in
  let rec mark s =
    Hashtbl.replace in_tree s.id ();
    List.iter mark (Option.value ~default:[] (Hashtbl.find_opt children s.id))
  in
  mark root;
  let dur s = Int64.sub s.t1 s.t0 in
  let self_ns = Hashtbl.create 16 in
  let self_words = Hashtbl.create 16 in
  let layer_ns = Hashtbl.create 16 in
  let total = ref 0L in
  List.iter
    (fun s ->
      if Hashtbl.mem in_tree s.id then begin
        let kids =
          List.sort
            (fun a b -> Int64.compare a.t0 b.t0)
            (Option.value ~default:[] (Hashtbl.find_opt children s.id))
        in
        let prev_end = ref s.t0 in
        List.iter
          (fun c ->
            if c.t0 < !prev_end || c.t1 > s.t1 then
              err "span %s.%s [%s] escapes its parent or overlaps a sibling"
                c.layer c.name c.item;
            prev_end := c.t1)
          kids;
        let kid_ns = List.fold_left (fun a c -> Int64.add a (dur c)) 0L kids in
        let kid_words =
          List.fold_left (fun a c -> a +. (c.w1 -. c.w0)) 0. kids
        in
        let self = Int64.sub (dur s) kid_ns in
        let k = key s in
        let layer = if s.parent < 0 then "other" else s.layer in
        Hashtbl.replace self_ns k
          (Int64.add self (Option.value ~default:0L (Hashtbl.find_opt self_ns k)));
        Hashtbl.replace layer_ns layer
          (Int64.add self
             (Option.value ~default:0L (Hashtbl.find_opt layer_ns layer)));
        Hashtbl.replace self_words k
          (s.w1 -. s.w0 -. kid_words
          +. Option.value ~default:0. (Hashtbl.find_opt self_words k));
        total := Int64.add !total self
      end)
    spans;
  (* Conservation: the layers' self times plus "other" are the root's
     duration, to the nanosecond. *)
  if !total <> dur root then
    err "self times sum to %Ld ns, root lasted %Ld ns" !total (dur root);
  let to_list h = List.sort compare (List.of_seq (Hashtbl.to_seq h)) in
  {
    wall_ns = dur root;
    self_ns = to_list self_ns;
    self_words = to_list self_words;
    layer_ns = to_list layer_ns;
    errors = List.rev !errors;
  }

let self_s sum k =
  match List.assoc_opt k sum.self_ns with
  | Some ns -> Int64.to_float ns /. 1e9
  | None -> 0.

let words sum k = Option.value ~default:0. (List.assoc_opt k sum.self_words)

let layer_s sum layer =
  match List.assoc_opt layer sum.layer_ns with
  | Some ns -> Int64.to_float ns /. 1e9
  | None -> 0.
