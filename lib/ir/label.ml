type t = string

let of_string s = s
let to_string s = s
let equal = String.equal
let compare = String.compare
let pp fmt s = Format.pp_print_string fmt s

module Set = Set.Make (String)
module Map = Map.Make (String)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = String.equal
  let hash = Hashtbl.hash
end)
