(* Chunked paged-array store.

   The old implementation kept one Hashtbl entry per touched cache line,
   which put a hash + probe on every simulated load and store — the
   simulator's hottest path. Lines are now grouped into fixed-size pages
   (a flat data array plus a per-line version array), reached by pure
   array indexing: page index = line asr page_bits, two growable page
   tables (one for negative line indices, one for non-negative — stacks
   grow downward from the data segment, so negative addresses are real).

   Sparse semantics are preserved exactly: a line is "present" iff it has
   been written, and every write path bumps the line version, so
   present <=> version > 0. [iter_lines] and [diff] enumerate only
   present lines, identical to the Hashtbl behaviour.

   Every comparison operator here is at type int (see [Int_cmp]); the
   two that are not say so: [diff] sorts with [Stdlib.compare] and
   [equal] matches on the empty list. *)

open Int_cmp

let line_words = Config.line_words

let line_bits =
  (* line_words is a power of two; precompute its log for shift/mask
     addressing on the hot path. *)
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  log2 line_words

let () = assert (1 lsl line_bits = line_words)
let line_mask = line_words - 1

(* 256 lines (16 KiB of simulated data) per page. *)
let page_bits = 8
let page_lines = 1 lsl page_bits
let page_off_mask = page_lines - 1

type page = {
  data : int array;  (* page_lines * line_words words, flat *)
  version : int array;  (* per line; 0 = never written (absent) *)
}

type t = {
  mutable pos : page option array;  (* page index >= 0 *)
  mutable neg : page option array;  (* page index < 0, stored at -1 - idx *)
}

let create () = { pos = Array.make 8 None; neg = Array.make 1 None }

let line_of_addr addr = addr asr line_bits
let addr_of_line line = line * line_words

let fresh_page () =
  { data = Array.make (page_lines * line_words) 0;
    version = Array.make page_lines 0 }

(* Page lookup that never allocates: None when the page is absent. *)
let find_page t pidx =
  if pidx >= 0 then
    if pidx < Array.length t.pos then Array.unsafe_get t.pos pidx else None
  else
    let i = -1 - pidx in
    if i < Array.length t.neg then Array.unsafe_get t.neg i else None

let grow table i =
  let n = Array.length table in
  let bigger = Array.make (Int.max (i + 1) (2 * n)) None in
  Array.blit table 0 bigger 0 n;
  bigger

let get_page t pidx =
  if pidx >= 0 then begin
    if pidx >= Array.length t.pos then t.pos <- grow t.pos pidx;
    match t.pos.(pidx) with
    | Some p -> p
    | None ->
      let p = fresh_page () in
      t.pos.(pidx) <- Some p;
      p
  end
  else begin
    let i = -1 - pidx in
    if i >= Array.length t.neg then t.neg <- grow t.neg i;
    match t.neg.(i) with
    | Some p -> p
    | None ->
      let p = fresh_page () in
      t.neg.(i) <- Some p;
      p
  end

let read t addr =
  let line = addr asr line_bits in
  match find_page t (line asr page_bits) with
  | None -> 0
  | Some p ->
    Array.unsafe_get p.data
      (((line land page_off_mask) lsl line_bits) lor (addr land line_mask))

let write t addr v =
  let line = addr asr line_bits in
  let p = get_page t (line asr page_bits) in
  let lo = line land page_off_mask in
  Array.unsafe_set p.data ((lo lsl line_bits) lor (addr land line_mask)) v;
  Array.unsafe_set p.version lo (Array.unsafe_get p.version lo + 1)

let line_snapshot t l =
  match find_page t (l asr page_bits) with
  | None -> Array.make line_words 0
  | Some p ->
    Array.sub p.data ((l land page_off_mask) lsl line_bits) line_words

let blit_line t l dst off =
  match find_page t (l asr page_bits) with
  | None -> Array.fill dst off line_words 0
  | Some p ->
    Array.blit p.data ((l land page_off_mask) lsl line_bits) dst off line_words

(* An all-zero page's data, standing in for absent pages so two lines
   compare at the same offset without a snapshot of either. *)
let zero_page = Array.make (page_lines * line_words) 0

let page_data t l =
  match find_page t (l asr page_bits) with None -> zero_page | Some p -> p.data

let rec words_equal da db i stop =
  i >= stop
  || Array.unsafe_get da i = Array.unsafe_get db i
     && words_equal da db (i + 1) stop

let line_equal a b l =
  let base = (l land page_off_mask) lsl line_bits in
  words_equal (page_data a l) (page_data b l) base (base + line_words)

let line_version t l =
  match find_page t (l asr page_bits) with
  | None -> 0
  | Some p -> p.version.(l land page_off_mask)

let write_line t l data =
  let p = get_page t (l asr page_bits) in
  let lo = l land page_off_mask in
  Array.blit data 0 p.data (lo lsl line_bits) line_words;
  p.version.(lo) <- p.version.(lo) + 1

let write_line_masked_from t l src off mask =
  let p = get_page t (l asr page_bits) in
  let lo = l land page_off_mask in
  let base = lo lsl line_bits in
  for o = 0 to line_words - 1 do
    if mask land (1 lsl o) <> 0 then p.data.(base + o) <- src.(off + o)
  done;
  p.version.(lo) <- p.version.(lo) + 1

let write_line_masked t l data mask = write_line_masked_from t l data 0 mask

let copy_page = function
  | None -> None
  | Some p -> Some { data = Array.copy p.data; version = Array.copy p.version }

let copy t =
  { pos = Array.map copy_page t.pos; neg = Array.map copy_page t.neg }

(* An absent line holds zeros (every write bumps its line's version), so
   a clear or a copy visits only the lines either side holds: a sparse
   page costs its version scan, not its 2048 words. *)
let clear_page p =
  for lo = 0 to page_lines - 1 do
    if Array.unsafe_get p.version lo > 0 then begin
      Array.unsafe_set p.version lo 0;
      Array.fill p.data (lo lsl line_bits) line_words 0
    end
  done

let reload_page ~src p =
  for lo = 0 to page_lines - 1 do
    let v = Array.unsafe_get src.version lo in
    if v > 0 || Array.unsafe_get p.version lo > 0 then begin
      Array.unsafe_set p.version lo v;
      let base = lo lsl line_bits in
      for o = base to base + line_words - 1 do
        Array.unsafe_set p.data o (Array.unsafe_get src.data o)
      done
    end
  done

let clear t =
  let clear_slot = function None -> () | Some p -> clear_page p in
  Array.iter clear_slot t.pos;
  Array.iter clear_slot t.neg

(* One page table of [reload]: [src]'s pages copied over [t]'s, [t]'s
   other pages cleared. [page_of] is the page index of a table slot. *)
let reload_table t ~dst ~src ~page_of =
  for i = 0 to Int.max (Array.length dst) (Array.length src) - 1 do
    let from = if i < Array.length src then src.(i) else None in
    match from with
    | Some f -> reload_page ~src:f (get_page t (page_of i))
    | None -> (
      match find_page t (page_of i) with
      | Some p -> clear_page p
      | None -> ())
  done

let reload t ~from =
  reload_table t ~dst:t.pos ~src:from.pos ~page_of:(fun i -> i);
  reload_table t ~dst:t.neg ~src:from.neg ~page_of:(fun i -> -1 - i)

(* Present lines of one page table, in ascending page order. *)
let iter_table table ~pidx_of f =
  Array.iteri
    (fun i po ->
      match po with
      | None -> ()
      | Some p ->
        let page_base = pidx_of i lsl page_bits in
        for lo = 0 to page_lines - 1 do
          if p.version.(lo) > 0 then f (page_base lor lo) p lo
        done)
    table

let iter_present t f =
  (* Negative pages from most negative upward, then non-negative: line
     order is ascending, though callers must not rely on it (the Hashtbl
     implementation had no order either). *)
  let n = Array.length t.neg in
  for i = n - 1 downto 0 do
    match t.neg.(i) with
    | None -> ()
    | Some p ->
      let page_base = (-1 - i) lsl page_bits in
      for lo = 0 to page_lines - 1 do
        if p.version.(lo) > 0 then f (page_base lor lo) p lo
      done
  done;
  iter_table t.pos ~pidx_of:(fun i -> i) f

let iter_lines t f =
  iter_present t (fun l p lo ->
      f l (Array.sub p.data (lo lsl line_bits) line_words))

let iter_line_data t f =
  iter_present t (fun l p lo -> f l p.data (lo lsl line_bits))

let zero_line = Array.make line_words 0

let line_data_or_zero t l =
  match find_page t (l asr page_bits) with
  | None -> (zero_line, 0)
  | Some p ->
    let lo = l land page_off_mask in
    if p.version.(lo) > 0 then (p.data, lo lsl line_bits) else (zero_line, 0)

let diff ?(from = min_int) a b =
  let mismatches = ref [] in
  let seen = Hashtbl.create 64 in
  let check l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      let da, abase = line_data_or_zero a l in
      let db, bbase = line_data_or_zero b l in
      for o = 0 to line_words - 1 do
        let addr = addr_of_line l + o in
        if addr >= from && da.(abase + o) <> db.(bbase + o) then
          mismatches := (addr, da.(abase + o), db.(bbase + o)) :: !mismatches
      done
    end
  in
  iter_present a (fun l _ _ -> check l);
  iter_present b (fun l _ _ -> check l);
  List.sort Stdlib.compare !mismatches

let equal ?from a b = match diff ?from a b with [] -> true | _ :: _ -> false
