let stack_words_per_core = 4096

let stack_top ~core =
  (* Highest stack sits just under the data segment. *)
  Capri_ir.Builder.data_base - (core * stack_words_per_core)

let stack_range ~core =
  let top = stack_top ~core in
  (top - stack_words_per_core, top)

let heap_base = Capri_ir.Builder.data_base

(* Modeled NVM data segment: 64 M words (512 MiB at 8 B/word). Memory
   itself is sparse and unbounded; this is the capacity the layout
   guarantees free of stacks and per-core structures, sized so
   production-scale stores fit — a million-key shard table costs
   [2 * 2 * keys] words (two words per slot, 2x slots per key), so the
   segment holds ~16 shards of a million keys each with room for
   mailboxes and control blocks. *)
let heap_words = 1 lsl 26

let max_cores = heap_base / stack_words_per_core

let check_cores cores =
  if cores < 1 || cores > max_cores then
    invalid_arg
      (Printf.sprintf "%d cores (1..%d supported)" cores max_cores)

let check_heap ~words =
  if words < 0 || words > heap_words then
    invalid_arg
      (Printf.sprintf
         "Layout.check_heap: %d data words exceed the %d-word heap" words
         heap_words)
