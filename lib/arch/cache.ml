(* Each set is one small int array holding, for every way, its line
   ([no_line] when invalid), the LRU stamp of its last touch and its
   dirty bit (0 or 1). Until a line is first inserted into a set, the
   set is the shared all-invalid [vacant] array, so a session allocates
   only the sets it touches. A way is named by [set lsl way_bits lor
   way]. Probes are top-level tail recursion, so no call allocates.
   Every comparison is at type int (see [Int_cmp]). *)

open Int_cmp

let no_line = min_int  (* an invalid way; no real line is min_int *)
let fields = 3  (* ints per way: line, stamp, dirty *)

type t = {
  ways : int;
  set_mask : int;
  way_bits : int;
  vacant : int array;  (* every way invalid; stands for each untouched set *)
  sets : int array array;
  mutable tick : int;  (* LRU clock *)
  mutable insertions : int;
  mutable evictions : int;
  mutable dirty_evictions : int;
  mutable evicted_dirty : bool;  (* the last [insert]'s victim *)
}

type stats = { insertions : int; evictions : int; dirty_evictions : int }

(* The clock and counts at their start values, for [create] and for a
   restart. A cleared set's ways keep their old stamps, but [victim]
   takes the first invalid way before it compares any, so a cleared
   cache whose clock is back at zero behaves as a fresh one.
   ([evicted_dirty] is written by every [insert] before it is read.) *)
let reset t =
  t.tick <- 0;
  t.insertions <- 0;
  t.evictions <- 0;
  t.dirty_evictions <- 0

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  let rec bits b = if 1 lsl b >= ways then b else bits (b + 1) in
  let vacant = Array.make (fields * ways) 0 in
  for w = 0 to ways - 1 do
    vacant.(fields * w) <- no_line
  done;
  (* Filled, not [Array.make sets vacant]: a large array made with the
     young [vacant] forces a minor collection, once per session, which
     promotes whatever the session's creator holds (a crash drive's
     shared decoded code among it). *)
  let table = Array.make sets [||] in
  Array.fill table 0 sets vacant;
  let t =
    {
      ways;
      set_mask = sets - 1;
      way_bits = bits 0;
      vacant;
      sets = table;
      tick = 0;
      insertions = 0;
      evictions = 0;
      dirty_evictions = 0;
      evicted_dirty = false;
    }
  in
  reset t;
  t

let[@inline] set_of t w = Array.unsafe_get t.sets (w lsr t.way_bits)
let[@inline] slot t w = fields * (w land ((1 lsl t.way_bits) - 1))

let rec scan a line w ways =
  if w >= ways then -1
  else if Array.unsafe_get a (fields * w) = line then w
  else scan a line (w + 1) ways

let find t line =
  let s = line land t.set_mask in
  let w = scan (Array.unsafe_get t.sets s) line 0 t.ways in
  if w < 0 then -1 else (s lsl t.way_bits) lor w

let mem t line = find t line >= 0

let is_dirty t line =
  let w = find t line in
  w >= 0 && (set_of t w).(slot t w + 2) = 1

let touch_way t w ~dirty =
  let a = set_of t w and i = slot t w in
  t.tick <- t.tick + 1;
  a.(i + 1) <- t.tick;
  if dirty then a.(i + 2) <- 1

let touch t line ~dirty =
  let w = find t line in
  if w < 0 then invalid_arg "Cache.touch: line not resident";
  touch_way t w ~dirty

(* The first invalid way, else the way with the lowest stamp (the first
   such way on ties). *)
let rec victim a w ways best =
  if w >= ways then best
  else if Array.unsafe_get a (fields * w) = no_line then w
  else
    victim a (w + 1) ways
      (if Array.unsafe_get a ((fields * w) + 1)
          < Array.unsafe_get a ((fields * best) + 1)
       then w
       else best)

let insert t line ~dirty =
  assert (not (mem t line));
  let s = line land t.set_mask in
  if t.sets.(s) == t.vacant then t.sets.(s) <- Array.copy t.vacant;
  let a = Array.unsafe_get t.sets s in
  t.tick <- t.tick + 1;
  let i = fields * victim a 0 t.ways 0 in
  let evicted = a.(i) in
  t.insertions <- t.insertions + 1;
  t.evicted_dirty <- evicted <> no_line && a.(i + 2) = 1;
  if evicted <> no_line then begin
    t.evictions <- t.evictions + 1;
    if t.evicted_dirty then t.dirty_evictions <- t.dirty_evictions + 1
  end;
  a.(i) <- line;
  a.(i + 1) <- t.tick;
  a.(i + 2) <- (if dirty then 1 else 0);
  evicted

let evicted_dirty t = t.evicted_dirty

let invalidate_way t w =
  let a = set_of t w and i = slot t w in
  let dirty = a.(i + 2) = 1 in
  a.(i) <- no_line;
  a.(i + 2) <- 0;
  dirty

let invalidate t line =
  let w = find t line in
  w >= 0 && invalidate_way t w

let dirty_lines t =
  let acc = ref [] in
  Array.iter
    (fun a ->
      for w = 0 to t.ways - 1 do
        let i = fields * w in
        if a.(i) <> no_line && a.(i + 2) = 1 then acc := a.(i) :: !acc
      done)
    t.sets;
  !acc

let resident t =
  Array.fold_left
    (fun n a ->
      let k = ref n in
      for w = 0 to t.ways - 1 do
        if a.(fields * w) <> no_line then incr k
      done;
      !k)
    0 t.sets

let stats (t : t) =
  {
    insertions = t.insertions;
    evictions = t.evictions;
    dirty_evictions = t.dirty_evictions;
  }

let clear t =
  Array.iter
    (fun a ->
      if a != t.vacant then
        for w = 0 to t.ways - 1 do
          a.(fields * w) <- no_line;
          a.((fields * w) + 2) <- 0
        done)
    t.sets
