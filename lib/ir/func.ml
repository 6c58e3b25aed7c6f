type t = {
  name : string;
  entry : Label.t;
  mutable layout : Block.t list;  (* entry first *)
  mutable appended : Block.t list;  (* added after [layout], newest first *)
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
  let layout =
    Label.Tbl.find index entry
    :: List.filter (fun (b : Block.t) -> not (Label.equal b.label entry)) blocks
  in
  { name; entry; layout; appended = []; index; next_fresh = 0 }

let name t = t.name
let entry t = t.entry
let find t l = Label.Tbl.find t.index l
let mem t l = Label.Tbl.mem t.index l

let blocks t =
  match t.appended with
  | [] -> t.layout
  | appended ->
    t.layout <- t.layout @ List.rev appended;
    t.appended <- [];
    t.layout

let add_block t (b : Block.t) =
  if Label.Tbl.mem t.index b.label then
    invalid_arg
      (Printf.sprintf "Func.add_block: duplicate label %s"
         (Label.to_string b.label));
  Label.Tbl.add t.index b.label b;
  t.appended <- b :: t.appended

let insert_after t after (b : Block.t) =
  if Label.Tbl.mem t.index b.label then
    invalid_arg
      (Printf.sprintf "Func.insert_after: duplicate label %s"
         (Label.to_string b.label));
  Label.Tbl.add t.index b.label b;
  let rec ins = function
    | [] -> [ b ]
    | (a : Block.t) :: rest when Label.equal a.label after -> a :: b :: rest
    | a :: rest -> a :: ins rest
  in
  t.layout <- ins (blocks t)

let fresh_label t base =
  let rec loop () =
    let l = Label.of_string (base ^ "." ^ string_of_int t.next_fresh) in
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

let instr_count t =
  List.fold_left (fun acc b -> acc + Block.instr_count b) 0 (blocks t)

let store_count t =
  List.fold_left (fun acc b -> acc + Block.store_count b) 0 (blocks t)

let pp fmt t =
  Format.fprintf fmt "@[<v>func %s (entry %a):" t.name Label.pp t.entry;
  List.iter (fun b -> Format.fprintf fmt "@,%a" Block.pp b) (blocks t);
  Format.fprintf fmt "@]"
