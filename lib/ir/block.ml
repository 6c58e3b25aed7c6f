type t = {
  label : Label.t;
  mutable instrs : Instr.t list;
  mutable term : Instr.terminator;
}

let create label instrs term = { label; instrs; term }

let store_count b =
  List.fold_left
    (fun acc i -> if Instr.is_store i then acc + 1 else acc)
    (Instr.term_store_count b.term)
    b.instrs

let instr_count b = List.length b.instrs + 1

let defs b =
  List.fold_left (fun acc i -> Reg.Set.union acc (Instr.defs i)) Reg.Set.empty
    b.instrs

let uses_before_def b =
  let rec go gen killed = function
    | [] -> Reg.Set.union gen (Reg.Set.diff (Instr.term_uses b.term) killed)
    | i :: rest ->
      go
        (Reg.Set.union gen (Reg.Set.diff (Instr.uses i) killed))
        (Reg.Set.union killed (Instr.defs i))
        rest
  in
  go Reg.Set.empty Reg.Set.empty b.instrs

let pp fmt b =
  Format.fprintf fmt "@[<v 2>%a:" Label.pp b.label;
  List.iter (fun i -> Format.fprintf fmt "@,%a" Instr.pp i) b.instrs;
  Format.fprintf fmt "@,%a@]" Instr.pp_terminator b.term
