type t = {
  name : string;
  entry : Label.t;
  mutable order : Label.t list;  (* layout order, entry first *)
  index : Block.t Label.Tbl.t;
  mutable next_fresh : int;
}

let create ~name ~entry blocks =
  let index = Label.Tbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      if Label.Tbl.mem index b.label then
        invalid_arg
          (Printf.sprintf "Func.create: duplicate label %s in %s"
             (Label.to_string b.label) name);
      Label.Tbl.add index b.label b)
    blocks;
  if not (Label.Tbl.mem index entry) then
    invalid_arg (Printf.sprintf "Func.create: missing entry block in %s" name);
  let order = List.map (fun (b : Block.t) -> b.label) blocks in
  let order =
    entry :: List.filter (fun l -> not (Label.equal l entry)) order
  in
  { name; entry; order; index; next_fresh = 0 }

let name t = t.name
let entry t = t.entry
let blocks t = List.map (Label.Tbl.find t.index) t.order
let find t l = Label.Tbl.find t.index l
let mem t l = Label.Tbl.mem t.index l

let add_block t (b : Block.t) =
  if Label.Tbl.mem t.index b.label then
    invalid_arg
      (Printf.sprintf "Func.add_block: duplicate label %s"
         (Label.to_string b.label));
  Label.Tbl.add t.index b.label b;
  t.order <- t.order @ [ b.label ]

let insert_after t after (b : Block.t) =
  if Label.Tbl.mem t.index b.label then
    invalid_arg
      (Printf.sprintf "Func.insert_after: duplicate label %s"
         (Label.to_string b.label));
  Label.Tbl.add t.index b.label b;
  let rec ins = function
    | [] -> [ b.label ]
    | l :: rest when Label.equal l after -> l :: b.label :: rest
    | l :: rest -> l :: ins rest
  in
  t.order <- ins t.order

let fresh_label t base =
  let rec loop () =
    let l = Label.of_string (Printf.sprintf "%s.%d" base t.next_fresh) in
    t.next_fresh <- t.next_fresh + 1;
    if Label.Tbl.mem t.index l then loop () else l
  in
  loop ()

let split_block t (b : Block.t) ~at =
  let n = List.length b.instrs in
  if at < 0 || at > n then invalid_arg "Func.split_block: index out of range";
  let rec take k = function
    | rest when k = 0 -> ([], rest)
    | [] -> ([], [])
    | x :: rest ->
      let pre, post = take (k - 1) rest in
      (x :: pre, post)
  in
  let pre, post = take at b.instrs in
  let new_label = fresh_label t (Label.to_string b.label) in
  let succ = Block.create new_label post b.term in
  b.instrs <- pre;
  b.term <- Instr.Jump new_label;
  insert_after t b.label succ;
  new_label

let preds_map t =
  let init =
    List.fold_left (fun m l -> Label.Map.add l Label.Set.empty m)
      Label.Map.empty t.order
  in
  List.fold_left
    (fun m l ->
      let b = find t l in
      List.fold_left
        (fun m succ ->
          Label.Map.update succ
            (function
              | Some s -> Some (Label.Set.add l s)
              | None -> Some (Label.Set.singleton l))
            m)
        m (Instr.term_succs b.term))
    init t.order

let instr_count t =
  List.fold_left (fun acc b -> acc + Block.instr_count b) 0 (blocks t)

let store_count t =
  List.fold_left (fun acc b -> acc + Block.store_count b) 0 (blocks t)

let pp fmt t =
  Format.fprintf fmt "@[<v>func %s (entry %a):" t.name Label.pp t.entry;
  List.iter (fun b -> Format.fprintf fmt "@,%a" Block.pp b) (blocks t);
  Format.fprintf fmt "@]"
