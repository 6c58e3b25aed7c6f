open Capri_ir

type reason =
  | Entry
  | Call_return
  | Trigger
  | Loop_header
  | Threshold
  | Merge

let reason_name = function
  | Entry -> "entry"
  | Call_return -> "call-return"
  | Trigger -> "trigger"
  | Loop_header -> "loop-header"
  | Threshold -> "threshold"
  | Merge -> "merge"

let all_reasons = [ Entry; Call_return; Trigger; Loop_header; Threshold; Merge ]

type region = {
  id : int;
  func : string;
  head : Label.t;
  members : Label.Set.t;
  static_store_bound : int;
  reason : reason;
}

type t = {
  by_id : (int, region) Hashtbl.t;
  by_block : (string, int Label.Tbl.t) Hashtbl.t;  (* func -> label -> id *)
}

let create () = { by_id = Hashtbl.create 64; by_block = Hashtbl.create 8 }

let add_region t r =
  if Hashtbl.mem t.by_id r.id then
    invalid_arg (Printf.sprintf "Region_map.add_region: duplicate id %d" r.id);
  Hashtbl.replace t.by_id r.id r

let set_block t ~func label id =
  let blocks =
    match Hashtbl.find_opt t.by_block func with
    | Some blocks -> blocks
    | None ->
      let blocks = Label.Tbl.create 64 in
      Hashtbl.replace t.by_block func blocks;
      blocks
  in
  Label.Tbl.replace blocks label id

let region_count t = Hashtbl.length t.by_id

let regions t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.by_id []
  |> List.sort (fun a b -> Int.compare a.id b.id)

let find t id = Hashtbl.find t.by_id id

let region_of_block t ~func label =
  Label.Tbl.find (Hashtbl.find t.by_block func) label

let head_of t id = (find t id).head

let max_store_bound t =
  Hashtbl.fold (fun _ r acc -> max acc r.static_store_bound) t.by_id 0

let reason_counts t =
  List.map
    (fun reason ->
      ( reason,
        Hashtbl.fold
          (fun _ r acc -> if r.reason = reason then acc + 1 else acc)
          t.by_id 0 ))
    all_reasons
