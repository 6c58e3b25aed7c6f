(* Per-line int records in pages reached by array indexing and allocated
   on first touch. A page holds as many lines as fit in 256 ints (a
   power of two), so it is allocated in the minor heap: short sessions
   touch a few pages that die young. Page [line asr page_bits] sits in
   one table for non-negative page indices and another for negative
   ones (at [-1 - index]), the way {!Memory} keeps its pages: stacks
   grow down from the data segment, so negative lines are real lines
   here too. *)

type t = {
  width : int;  (* ints per line *)
  init : int;  (* value of every int of a fresh page *)
  page_bits : int;  (* a page holds [1 lsl page_bits] lines *)
  mutable pos : int array array;
  mutable neg : int array array;
}

let absent : int array = [||]

let create ~width ~init =
  let rec fit b =
    if b > 0 && (1 lsl b) * width > 256 then fit (b - 1) else b
  in
  { width; init; page_bits = fit 8; pos = [||]; neg = [||] }

let[@inline] offset t line = (line land ((1 lsl t.page_bits) - 1)) * t.width

let find t line =
  let p = line asr t.page_bits in
  if p >= 0 then
    if p < Array.length t.pos then Array.unsafe_get t.pos p else absent
  else
    let i = -1 - p in
    if i < Array.length t.neg then Array.unsafe_get t.neg i else absent

let grow table i =
  let n = Array.length table in
  let bigger = Array.make (max (i + 1) (2 * n)) absent in
  Array.blit table 0 bigger 0 n;
  bigger

let page t line =
  let pg = find t line in
  if pg != absent then pg
  else begin
    let pg = Array.make ((1 lsl t.page_bits) * t.width) t.init in
    let p = line asr t.page_bits in
    if p >= 0 then begin
      if p >= Array.length t.pos then t.pos <- grow t.pos p;
      t.pos.(p) <- pg
    end
    else begin
      let i = -1 - p in
      if i >= Array.length t.neg then t.neg <- grow t.neg i;
      t.neg.(i) <- pg
    end;
    pg
  end

let reset t =
  t.pos <- [||];
  t.neg <- [||]
