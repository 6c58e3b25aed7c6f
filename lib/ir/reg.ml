type t = int

let count = 32

let of_int i =
  if i < 0 || i >= count then invalid_arg "Reg.of_int: out of range" else i

let to_int r = r
let equal = Int.equal
let compare = Int.compare
let pp fmt r = Format.fprintf fmt "r%d" r
let to_string r = "r" ^ string_of_int r
let all = List.init count (fun i -> i)
let sp = count - 1

(* Bit [r] of the mask stands for register [r]. Every traversal runs from
   the lowest register up, the order [Set.Make (Int)] visits in. *)
module Set = struct
  type elt = t
  type t = int

  let empty = 0
  let is_empty s = s = 0
  let singleton r = 1 lsl r
  let mem r s = s land (1 lsl r) <> 0
  let add r s = s lor (1 lsl r)
  let remove r s = s land lnot (1 lsl r)
  let union a b = a lor b
  let inter a b = a land b
  let diff a b = a land lnot b
  let equal = Int.equal

  let cardinal s =
    let rec go s n = if s = 0 then n else go (s land (s - 1)) (n + 1) in
    go s 0

  let fold f s acc =
    let rec go r s acc =
      if s = 0 then acc
      else go (r + 1) (s lsr 1) (if s land 1 <> 0 then f r acc else acc)
    in
    go 0 s acc

  let iter f s =
    let rec go r s =
      if s <> 0 then begin
        if s land 1 <> 0 then f r;
        go (r + 1) (s lsr 1)
      end
    in
    go 0 s

  let exists p s =
    let rec go r s =
      s <> 0 && ((s land 1 <> 0 && p r) || go (r + 1) (s lsr 1))
    in
    go 0 s

  let filter p s = fold (fun r acc -> if p r then add r acc else acc) s empty

  let elements s =
    let rec go r acc =
      if r < 0 then acc else go (r - 1) (if mem r s then r :: acc else acc)
    in
    go (count - 1) []
end
