(* Property-based tests over randomly generated programs (see Capri_workloads.Gen).
   The headline property is the paper's central claim: whatever the
   program, the threshold, the optimization mix and the crash schedule,
   crash + recover + resume is indistinguishable from a crash-free run. *)

open Capri
module Opt = Capri_compiler.Options

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 5_000)

let options_of_seed seed =
  (* deterministically vary threshold and optimization mix with the seed *)
  let thresholds = [| 16; 32; 64; 256 |] in
  let configs = Array.of_list Opt.fig9_configs in
  let threshold = thresholds.(seed mod Array.length thresholds) in
  let _, options = configs.((seed / 7) mod Array.length configs) in
  Opt.with_threshold threshold options

(* Crash testing requires a failure-atomic configuration: the bare
   `region` config has no checkpoint stores (the paper's Figure 9 calls
   it out as not failure-atomic), so crashes under it are unrecoverable
   by design. *)
let crash_options_of_seed seed =
  let options = options_of_seed seed in
  if options.Opt.ckpt then options else { options with Opt.ckpt = true }

(* WSP equivalence under one crash at a pseudo-random point. *)
let prop_crash_equivalence =
  QCheck.Test.make ~count:60 ~name:"crash+recover == crash-free" seed_gen
    (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let options = crash_options_of_seed seed in
      let compiled = Pipeline.compile options program in
      let reference = Verify.reference compiled in
      let total = reference.Executor.instrs in
      (* three crash points spread pseudo-randomly across the run *)
      let points =
        List.sort_uniq compare
          [ 1 + (seed * 7919 mod max 1 (total - 1));
            1 + (seed * 104729 mod max 1 (total - 1));
            max 1 (total / 2) ]
      in
      List.for_all
        (fun at ->
          let result, _, _ =
            Verify.run_with_crashes ~crash_at:[ at ] compiled
              (Recovery.machine compiled)
          in
          match Verify.check_equivalence ~reference ~candidate:result with
          | Ok () -> true
          | Error reason ->
            QCheck.Test.fail_reportf "seed %d crash at %d: %s" seed at reason)
        points)

(* Double crashes: a crash during the re-execution after recovery. *)
let prop_double_crash =
  QCheck.Test.make ~count:25 ~name:"double crash recovers" seed_gen
    (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let compiled = Pipeline.compile (crash_options_of_seed seed) program in
      let reference = Verify.reference compiled in
      let total = reference.Executor.instrs in
      let a = 1 + (seed * 31 mod max 1 (total / 2)) in
      let b = 1 + (seed * 17 mod max 1 (total / 2)) in
      let result, _, _ =
        Verify.run_with_crashes ~crash_at:[ a; b ] compiled
          (Recovery.machine compiled)
      in
      match Verify.check_equivalence ~reference ~candidate:result with
      | Ok () -> true
      | Error reason ->
        QCheck.Test.fail_reportf "seed %d crashes at %d,%d: %s" seed a b
          reason)

(* Compilation preserves crash-free semantics for every optimization
   configuration. *)
let prop_compile_preserves =
  QCheck.Test.make ~count:60 ~name:"compiled == source semantics" seed_gen
    (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let base = run_volatile program in
      List.for_all
        (fun (label, options) ->
          List.for_all
            (fun threshold ->
              let options = Opt.with_threshold threshold options in
              let compiled = Pipeline.compile options program in
              let result = run compiled in
              if
                Memory.equal ~from:Builder.data_base base.Executor.memory
                  result.Executor.memory
                && base.Executor.outputs = result.Executor.outputs
              then true
              else
                QCheck.Test.fail_reportf "seed %d config %s threshold %d"
                  seed label threshold)
            [ 16; 256 ])
        Opt.fig9_configs)

(* The region store threshold is never exceeded dynamically (the
   executor raises when its check fails; `run` enables it). *)
let prop_threshold_invariant =
  QCheck.Test.make ~count:80 ~name:"dynamic stores/region <= threshold"
    seed_gen (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let options = options_of_seed seed in
      let compiled = Pipeline.compile options program in
      let result = run compiled in
      result.Executor.region_stats.Executor.max_stores_in_region
      <= options.Opt.threshold)

(* Unrolling alone, on top of arbitrary programs. *)
let prop_unroll_preserves =
  QCheck.Test.make ~count:60 ~name:"speculative unrolling is semantic noop"
    seed_gen (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let base = run_volatile program in
      let copy = Pipeline.copy_program program in
      ignore (Capri_compiler.Unroll.run Opt.default copy);
      Validate.check_exn copy;
      let after = run_volatile copy in
      Memory.equal ~from:Builder.data_base base.Executor.memory
        after.Executor.memory
      && base.Executor.outputs = after.Executor.outputs)

(* The oracle must never observe a stale NVM read in Capri mode. *)
let prop_no_stale_reads =
  QCheck.Test.make ~count:40 ~name:"no stale NVM reads" seed_gen (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      (* tiny caches make evictions (and thus the races) frequent *)
      let config =
        { Config.sim_default with
          Config.l1_lines = 8;
          l2_lines = 16;
          dram_cache_lines = 32;
        }
      in
      let result = run ~config compiled in
      result.Executor.stale_reads = 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_crash_equivalence;
      prop_double_crash;
      prop_compile_preserves;
      prop_threshold_invariant;
      prop_unroll_preserves;
      prop_no_stale_reads;
    ]

(* Journaled I/O gives exactly-once output streams on arbitrary programs
   under crashes (Section 3.3 extension). *)
let prop_journal_exactly_once =
  QCheck.Test.make ~count:30 ~name:"journal: exactly-once outputs" seed_gen
    (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let compiled = Pipeline.compile (crash_options_of_seed seed) program in
      let journaled crash_at =
        Recovery.drive ~crash_at compiled
          (Recovery.machine ~journal_io:true compiled)
      in
      let reference = journaled [] in
      let total = reference.Executor.instrs in
      List.for_all
        (fun at ->
          let crashed = journaled [ at ] in
          if reference.Executor.outputs = crashed.Executor.outputs then true
          else
            QCheck.Test.fail_reportf "seed %d crash at %d: streams differ"
              seed at)
        [ 1 + (seed mod max 1 (total - 1));
          1 + (seed * 13 mod max 1 (total - 1)); max 1 (total / 2) ])

(* Profile-guided compilation is a semantic no-op and keeps the threshold
   invariant. *)
let prop_pgo_preserves =
  QCheck.Test.make ~count:25 ~name:"pgo preserves semantics" seed_gen
    (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let base = run_volatile program in
      let options = crash_options_of_seed seed in
      let pgo = compile_pgo ~options program in
      let result = run pgo in
      Memory.equal ~from:Builder.data_base base.Executor.memory
        result.Executor.memory
      && base.Executor.outputs = result.Executor.outputs
      && result.Executor.region_stats.Executor.max_stores_in_region
         <= options.Opt.threshold)

(* The paged-array memory must be observationally identical to the
   obvious model: a word-keyed Hashtbl with absent = 0. Random op
   sequences mix plain writes, whole-line writes, masked line writes and
   copies, over a window straddling address 0 (negative addresses are
   real: stacks grow below the data segment). *)
let prop_memory_model =
  QCheck.Test.make ~count:150 ~name:"paged memory == word-map model" seed_gen
    (fun seed ->
      let lw = Capri_arch.Config.line_words in
      let model : (int, int) Hashtbl.t = Hashtbl.create 128 in
      let m = Memory.create () in
      let state = ref (seed + 1) in
      let next () =
        state := (!state * 48271 + 11) land 0x3fff_ffff;
        !state
      in
      let addr () = (next () mod (64 * lw)) - (32 * lw) in
      let model_read a = Option.value ~default:0 (Hashtbl.find_opt model a) in
      for _ = 1 to 400 do
        match next () mod 5 with
        | 0 | 1 ->
          let a = addr () and v = next () in
          Memory.write m a v;
          Hashtbl.replace model a v
        | 2 ->
          let l = Memory.line_of_addr (addr ()) in
          let data = Array.init lw (fun _ -> next ()) in
          Memory.write_line m l data;
          Array.iteri
            (fun o v -> Hashtbl.replace model (Memory.addr_of_line l + o) v)
            data
        | 3 ->
          let l = Memory.line_of_addr (addr ()) in
          let data = Array.init lw (fun _ -> next ()) in
          let mask = next () land ((1 lsl lw) - 1) in
          Memory.write_line_masked m l data mask;
          Array.iteri
            (fun o v ->
              if mask land (1 lsl o) <> 0 then
                Hashtbl.replace model (Memory.addr_of_line l + o) v)
            data
        | _ ->
          let a = addr () in
          if Memory.read m a <> model_read a then
            QCheck.Test.fail_reportf "seed %d: addr %d: paged %d model %d"
              seed a (Memory.read m a) (model_read a)
      done;
      (* final sweep: every model word matches, every present line's
         snapshot matches, and copy is equal but independent *)
      Hashtbl.iter
        (fun a v ->
          if Memory.read m a <> v then
            QCheck.Test.fail_reportf "seed %d: final addr %d: paged %d model %d"
              seed a (Memory.read m a) v)
        model;
      Memory.iter_lines m (fun l data ->
          Array.iteri
            (fun o v ->
              if model_read (Memory.addr_of_line l + o) <> v then
                QCheck.Test.fail_reportf
                  "seed %d: iter_lines line %d word %d: paged %d model %d" seed
                  l o v
                  (model_read (Memory.addr_of_line l + o)))
            data);
      let c = Memory.copy m in
      Memory.equal m c
      && Memory.diff m c = []
      &&
      (let a = addr () in
       Memory.write c a (Memory.read c a + 1);
       Memory.read m a = model_read a))

(* The cache against a list-per-set LRU model (most recent first):
   random insert, touch, invalidate and probe operations over lines on
   both sides of zero, on 1..4-way geometries. Residency, dirty bits,
   victims and the eviction counts must all agree. *)
let prop_cache_model =
  QCheck.Test.make ~count:200 ~name:"cache == LRU list model" seed_gen
    (fun seed ->
      let module Cache = Capri_arch.Cache in
      let state = ref (seed + 1) in
      let next () =
        state := (!state * 48271 + 11) land 0x3fff_ffff;
        !state
      in
      let sets = 1 lsl (seed mod 3) and ways = 1 + (seed / 3 mod 4) in
      let c = Cache.create ~sets ~ways in
      let model = Array.make sets [] in  (* (line, dirty), MRU first *)
      let set_of line = line land (sets - 1) in
      let evictions = ref 0 and dirty_evictions = ref 0 and inserts = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf ("seed %d: " ^^ fmt) seed in
      for step = 1 to 300 do
        let line = (next () mod 24) - 12 in
        let s = set_of line in
        let resident = List.mem_assoc line model.(s) in
        if Cache.mem c line <> resident then fail "step %d: mem %d" step line;
        if Cache.is_dirty c line <> (resident && List.assoc line model.(s))
        then fail "step %d: dirty bit of %d" step line;
        let dirty = next () land 1 = 0 in
        match next () mod 3 with
        | 0 when not resident ->
          let victim = Cache.insert c line ~dirty in
          incr inserts;
          let expected =
            if List.length model.(s) < ways then Cache.no_line
            else fst (List.nth model.(s) (ways - 1))
          in
          if victim <> expected then
            fail "step %d: insert %d evicted %d, model %d" step line victim
              expected;
          if victim <> Cache.no_line then begin
            let vdirty = List.assoc victim model.(s) in
            if Cache.evicted_dirty c <> vdirty then
              fail "step %d: victim %d dirty bit" step victim;
            incr evictions;
            if vdirty then incr dirty_evictions;
            model.(s) <- List.remove_assoc victim model.(s)
          end;
          model.(s) <- (line, dirty) :: model.(s)
        | 0 | 1 when resident ->
          Cache.touch c line ~dirty;
          let d = List.assoc line model.(s) in
          model.(s) <- (line, d || dirty) :: List.remove_assoc line model.(s)
        | _ ->
          let was = resident && List.assoc line model.(s) in
          if Cache.invalidate c line <> was then
            fail "step %d: invalidate %d" step line;
          model.(s) <- List.remove_assoc line model.(s)
      done;
      let st = Cache.stats c in
      st.Cache.insertions = !inserts
      && st.Cache.evictions = !evictions
      && st.Cache.dirty_evictions = !dirty_evictions
      && Cache.resident c
         = Array.fold_left (fun n l -> n + List.length l) 0 model)

(* Coherence without an owner table: after every access of a random
   multi-core load/store stream on a tiny hierarchy, no line is held by
   two L1s, and a line dirty in some L1 is held by that L1 alone. *)
let prop_single_dirty_copy =
  QCheck.Test.make ~count:100 ~name:"a dirty line has exactly one L1 copy"
    seed_gen (fun seed ->
      let module Hier = Capri_arch.Hierarchy in
      let module Cache = Capri_arch.Cache in
      let cores = 2 + (seed mod 3) in
      let config =
        { Capri_arch.Config.sim_default with
          Capri_arch.Config.cores; l1_lines = 4; l1_ways = 2; l2_lines = 8;
          l2_ways = 2; dram_cache_lines = 16 }
      in
      let hier = Hier.create config ~on_nvm_writeback:(fun ~cycle:_ ~line:_ -> ()) in
      let state = ref (seed + 1) in
      let next () =
        state := (!state * 48271 + 11) land 0x3fff_ffff;
        !state
      in
      let lw = Capri_arch.Config.line_words in
      let ok = ref true in
      for cycle = 1 to 400 do
        let core = next () mod cores in
        let addr = ((next () mod 12) - 6) * lw in
        if next () land 1 = 0 then ignore (Hier.load hier ~core ~cycle ~addr)
        else ignore (Hier.store hier ~core ~cycle ~addr);
        for line = -6 to 5 do
          let holders = ref 0 and dirty = ref 0 in
          for c = 0 to cores - 1 do
            let l1 = Hier.l1 hier ~core:c in
            if Cache.mem l1 line then incr holders;
            if Cache.is_dirty l1 line then incr dirty
          done;
          if !holders > 1 || (!dirty > 0 && (!dirty <> 1 || !holders <> 1))
          then begin
            ok := false;
            QCheck.Test.fail_reportf
              "seed %d cycle %d: line %d dirty in %d L1s, held by %d" seed
              cycle line !dirty !holders
          end
        done
      done;
      !ok)

(* The parser round-trips every compiled artifact. *)
let prop_parser_round_trip =
  QCheck.Test.make ~count:40 ~name:"parser round-trips compiled programs"
    seed_gen (fun seed ->
      let program = Capri_workloads.Gen.program_of_seed seed in
      let compiled = Pipeline.compile (options_of_seed seed) program in
      let text = Capri_ir.Parser.to_string compiled.Compiled.program in
      match Capri_ir.Parser.parse text with
      | Error e ->
        QCheck.Test.fail_reportf "seed %d: parse error line %d: %s" seed
          e.Capri_ir.Parser.line e.Capri_ir.Parser.message
      | Ok p2 -> Capri_ir.Parser.to_string p2 = text)

(* Obs.Series merge laws: per-task series folded in any order must
   render the same timeline, which is what makes the windowed SLO
   accounting safe to compute under parallel fan-out. *)
module Series = Capri_obs.Series

type obs_op = Inc of int * string | Add of int * string * int | Obs of int * string * int

let obs_gen =
  let open QCheck.Gen in
  let name = oneofl [ "ops"; "rejected"; "down" ] in
  let hname = oneofl [ "lat"; "replay" ] in
  let ts = int_bound 4_000 in
  let op =
    oneof
      [
        map2 (fun t n -> Inc (t, n)) ts name;
        map3 (fun t n v -> Add (t, n, v)) ts name (int_bound 50);
        map3 (fun t n v -> Obs (t, "h_" ^ n, v)) ts hname (int_bound 10_000);
      ]
  in
  list_size (int_bound 80) op

let print_obs ops =
  String.concat ";"
    (List.map
       (function
         | Inc (t, n) -> Printf.sprintf "inc %d %s" t n
         | Add (t, n, v) -> Printf.sprintf "add %d %s %d" t n v
         | Obs (t, n, v) -> Printf.sprintf "obs %d %s %d" t n v)
       ops)

let obs_arb = QCheck.make ~print:print_obs obs_gen

let replay_ops width ops =
  let s = Series.create ~width () in
  List.iter
    (function
      | Inc (ts, n) -> Series.inc s ~ts n
      | Add (ts, n, v) -> Series.add s ~ts n v
      | Obs (ts, n, v) -> Series.observe s ~ts n v)
    ops;
  s

let prop_series_merge_laws =
  QCheck.Test.make ~count:100
    ~name:"series: merge commutes/associates; split run == whole run"
    QCheck.(pair obs_arb obs_arb)
    (fun (xs, ys) ->
      let width = 128 in
      let json s = Series.to_json s in
      (* commutativity: xs <- ys  ==  ys <- xs *)
      let ab = replay_ops width xs in
      Series.merge_into ~dst:ab (replay_ops width ys);
      let ba = replay_ops width ys in
      Series.merge_into ~dst:ba (replay_ops width xs);
      (* associativity: ((xs <- ys) <- xs)  ==  (xs <- (ys <- xs)) *)
      let left = replay_ops width xs in
      Series.merge_into ~dst:left (replay_ops width ys);
      Series.merge_into ~dst:left (replay_ops width xs);
      let inner = replay_ops width ys in
      Series.merge_into ~dst:inner (replay_ops width xs);
      let right = replay_ops width xs in
      Series.merge_into ~dst:right inner;
      (* split run: first half and second half merged == whole run *)
      let whole = replay_ops width (xs @ ys) in
      let halves = replay_ops width xs in
      Series.merge_into ~dst:halves (replay_ops width ys);
      json ab = json ba && json left = json right && json halves = json whole)

(* A generated program before and after the full pipeline at the seed's
   threshold: the compiled side carries the blocks LICM's sinking splits
   off and the clones unrolling adds. *)
let source_and_compiled seed =
  let program = Capri_workloads.Gen.program_of_seed seed in
  let options =
    Opt.with_threshold (options_of_seed seed).Opt.threshold Opt.all_opts
  in
  [ program; (Pipeline.compile options program).Compiled.program ]

(* Blocks reachable from the entry when [removed] (if any) is deleted. *)
let reachable_without f removed =
  let seen = Label.Tbl.create 64 in
  let rec visit l =
    let gone = match removed with Some r -> Label.equal l r | None -> false in
    if not (gone || Label.Tbl.mem seen l) then begin
      Label.Tbl.add seen l ();
      List.iter visit (Instr.term_succs (Func.find f l).Block.term)
    end
  in
  visit (Func.entry f);
  seen

(* Dominance by its definition: [a] dominates a reachable [b] iff [b] is
   no longer reachable from the entry once [a] is removed. *)
let dominance_by_definition f =
  let dom = Dom.compute (Cfg.of_func f) in
  let reachable = reachable_without f None in
  let labels = List.map (fun (b : Block.t) -> b.Block.label) (Func.blocks f) in
  List.for_all
    (fun a ->
      let without_a = reachable_without f (Some a) in
      List.for_all
        (fun b ->
          (not (Label.Tbl.mem reachable b))
          || Dom.dominates dom a b = not (Label.Tbl.mem without_a b))
        labels)
    labels

let prop_dominators =
  QCheck.Test.make ~count:100 ~name:"dominators == removal reachability"
    seed_gen (fun seed ->
      List.for_all
        (fun (p : Program.t) ->
          List.for_all dominance_by_definition p.Program.funcs)
        (source_and_compiled seed))

let prop_inter_liveness =
  QCheck.Test.make ~count:100 ~name:"interprocedural liveness == reference"
    seed_gen (fun seed ->
      match List.find_map Helpers.liveness_mismatch (source_and_compiled seed) with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* [Memory.reload] over a memory with a history of its own leaves what
   [Memory.copy] makes: the same lines, versions and words, none of the
   target's own, and the source as it was. [Memory.clear] leaves no
   line. *)
let prop_memory_reload =
  QCheck.Test.make ~count:100 ~name:"memory reload == copy" seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let scribble m ~writes ~span =
        for _ = 1 to writes do
          Memory.write m
            (Random.State.int rng (2 * span) - span)
            (Random.State.int rng 1000)
        done
      in
      let view m =
        let acc = ref [] in
        Memory.iter_lines m (fun l data ->
            acc := (l, Memory.line_version m l, data) :: !acc);
        List.sort compare !acc
      in
      let src = Memory.create () and dst = Memory.create () in
      scribble src ~writes:300 ~span:5_000;
      scribble dst ~writes:300 ~span:50_000;
      let expected = view (Memory.copy src) in
      Memory.reload dst ~from:src;
      view dst = expected
      && view src = expected
      && begin
        Memory.clear dst;
        view dst = [] && Memory.equal dst (Memory.create ())
      end)

(* The mask [Reg.Set] against [Set.Make (Int)]: three set slots on each
   side go through the same random operations, and after every one each
   slot answers every query alike, traversal orders included. *)
module Int_set = Set.Make (Int)

type set_op =
  | Set_add of int * int  (* slot, register *)
  | Set_remove of int * int
  | Set_singleton of int * int
  | Set_clear of int
  | Set_union of int * int * int  (* destination slot, operand slots *)
  | Set_inter of int * int * int
  | Set_diff of int * int * int
  | Set_filter of int * int * int  (* destination, source, predicate *)

let set_slots = 3

(* Predicate [p] holds for register [r] iff bit [r] of [p] is set. *)
let holds p r = (p lsr r) land 1 = 1

let show_set_op = function
  | Set_add (s, r) -> Printf.sprintf "add r%d @%d" r s
  | Set_remove (s, r) -> Printf.sprintf "remove r%d @%d" r s
  | Set_singleton (s, r) -> Printf.sprintf "@%d := {r%d}" s r
  | Set_clear s -> Printf.sprintf "@%d := {}" s
  | Set_union (d, a, b) -> Printf.sprintf "@%d := @%d | @%d" d a b
  | Set_inter (d, a, b) -> Printf.sprintf "@%d := @%d & @%d" d a b
  | Set_diff (d, a, b) -> Printf.sprintf "@%d := @%d - @%d" d a b
  | Set_filter (d, a, p) -> Printf.sprintf "@%d := filter %#x @%d" d p a

let set_ops_arb =
  let open QCheck.Gen in
  let slot = int_bound (set_slots - 1) and reg = int_bound (Reg.count - 1) in
  let pred =
    map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xffff) (int_bound 0xffff)
  in
  let op =
    frequency
      [ (4, map2 (fun s r -> Set_add (s, r)) slot reg);
        (2, map2 (fun s r -> Set_remove (s, r)) slot reg);
        (1, map2 (fun s r -> Set_singleton (s, r)) slot reg);
        (1, map (fun s -> Set_clear s) slot);
        (2, map3 (fun d a b -> Set_union (d, a, b)) slot slot slot);
        (2, map3 (fun d a b -> Set_inter (d, a, b)) slot slot slot);
        (2, map3 (fun d a b -> Set_diff (d, a, b)) slot slot slot);
        (1, map3 (fun d a p -> Set_filter (d, a, p)) slot slot pred) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_set_op ops))
    (list_size (int_range 1 60) op)

(* The registers a traversal visits, in its order. *)
let visited traverse =
  let acc = ref [] in
  traverse (fun r -> acc := r :: !acc);
  List.rev !acc

(* Everything a slot answers: emptiness, size, the element list, the
   registers [iter] and [fold] visit in their order, membership of every
   register and [exists] under each predicate. *)
let mask_view preds s =
  let to_int k r = k (Reg.to_int r) in
  ( Reg.Set.is_empty s, Reg.Set.cardinal s,
    List.map Reg.to_int (Reg.Set.elements s),
    visited (fun k -> Reg.Set.iter (to_int k) s),
    visited (fun k -> Reg.Set.fold (fun r () -> to_int k r) s ()),
    List.init Reg.count (fun r -> Reg.Set.mem (Reg.of_int r) s),
    List.map
      (fun p -> Reg.Set.exists (fun r -> holds p (Reg.to_int r)) s)
      preds )

let model_view preds s =
  ( Int_set.is_empty s, Int_set.cardinal s, Int_set.elements s,
    visited (fun k -> Int_set.iter k s),
    visited (fun k -> Int_set.fold (fun r () -> k r) s ()),
    List.init Reg.count (fun r -> Int_set.mem r s),
    List.map (fun p -> Int_set.exists (holds p) s) preds )

let prop_reg_set_model =
  QCheck.Test.make ~count:300 ~name:"Reg.Set == Set.Make (Int)" set_ops_arb
    (fun ops ->
      let mask = Array.make set_slots Reg.Set.empty in
      let model = Array.make set_slots Int_set.empty in
      let preds =
        [ 0; 1; 1 lsl 31; 0x5555_5555; 0xffff_ffff ]
        @ List.filter_map
            (function Set_filter (_, _, p) -> Some p | _ -> None)
            ops
      in
      let step op =
        let r = Reg.of_int in
        match op with
        | Set_add (s, x) ->
          mask.(s) <- Reg.Set.add (r x) mask.(s);
          model.(s) <- Int_set.add x model.(s)
        | Set_remove (s, x) ->
          mask.(s) <- Reg.Set.remove (r x) mask.(s);
          model.(s) <- Int_set.remove x model.(s)
        | Set_singleton (s, x) ->
          mask.(s) <- Reg.Set.singleton (r x);
          model.(s) <- Int_set.singleton x
        | Set_clear s ->
          mask.(s) <- Reg.Set.empty;
          model.(s) <- Int_set.empty
        | Set_union (d, a, b) ->
          mask.(d) <- Reg.Set.union mask.(a) mask.(b);
          model.(d) <- Int_set.union model.(a) model.(b)
        | Set_inter (d, a, b) ->
          mask.(d) <- Reg.Set.inter mask.(a) mask.(b);
          model.(d) <- Int_set.inter model.(a) model.(b)
        | Set_diff (d, a, b) ->
          mask.(d) <- Reg.Set.diff mask.(a) mask.(b);
          model.(d) <- Int_set.diff model.(a) model.(b)
        | Set_filter (d, a, p) ->
          mask.(d) <- Reg.Set.filter (fun x -> holds p (Reg.to_int x)) mask.(a);
          model.(d) <- Int_set.filter (holds p) model.(a)
      in
      List.iteri
        (fun i op ->
          step op;
          for s = 0 to set_slots - 1 do
            if mask_view preds mask.(s) <> model_view preds model.(s) then
              QCheck.Test.fail_reportf "after op %d (%s): slot %d differs" i
                (show_set_op op) s;
            for t = 0 to set_slots - 1 do
              if
                Reg.Set.equal mask.(s) mask.(t)
                <> Int_set.equal model.(s) model.(t)
              then
                QCheck.Test.fail_reportf "after op %d (%s): equal %d %d differs"
                  i (show_set_op op) s t
            done
          done)
        ops;
      true)

(* [Dom] and [Loops] against the set-based models of
   test/dataflow_model.ml, over a generated program after unrolling and
   region formation, so split blocks and unrolled loops are present:
   dominance and the immediate dominator for every block pair, and the
   loop list in order with every field and per-loop query. *)
module Model = Dataflow_model

let dom_loops_mismatch (f : Func.t) =
  let name what = Printf.sprintf "%s: %s" (Func.name f) what in
  let labels = List.map (fun (b : Block.t) -> b.Block.label) (Func.blocks f) in
  let dom = Dom.compute (Cfg.of_func f) and model = Model.Dom.compute f in
  let show = Label.to_string in
  let dom_mismatch =
    List.find_map
      (fun b ->
        if Dom.idom dom b <> Model.Dom.idom model b then
          Some (name ("idom of " ^ show b))
        else
          List.find_map
            (fun a ->
              if Dom.dominates dom a b <> Model.Dom.dominates model a b then
                Some (name (Printf.sprintf "%s dominates %s" (show a) (show b)))
              else None)
            labels)
      labels
  in
  match dom_mismatch with
  | Some _ as m -> m
  | None ->
    let loops = Loops.compute (Cfg.of_func f) in
    let got = Loops.loops loops and expected = Model.Loops.loops f in
    if List.length got <> List.length expected then
      Some (name "loop count")
    else
      List.find_map
        (fun ((l : Loops.loop), (m : Loops.loop)) ->
          let at what = Some (name (show m.Loops.header ^ " " ^ what)) in
          if not (Label.equal l.Loops.header m.Loops.header) then at "header"
          else if not (Label.Set.equal l.Loops.latches m.Loops.latches) then
            at "latches"
          else if not (Label.Set.equal l.Loops.body m.Loops.body) then
            at "body"
          else if l.Loops.depth <> m.Loops.depth then at "depth"
          else if Loops.is_simple loops l <> Model.Loops.is_simple m then
            at "is_simple"
          else if
            Loops.is_unrollable f loops l <> Model.Loops.is_unrollable f m
          then at "is_unrollable"
          else if
            Loops.static_trip_count f l <> Model.Loops.static_trip_count f m
          then at "static_trip_count"
          else None)
        (List.combine got expected)

let prop_dom_loops_model =
  QCheck.Test.make ~count:100 ~name:"dominators and loops == set-based model"
    seed_gen (fun seed ->
      let program =
        Pipeline.copy_program (Capri_workloads.Gen.program_of_seed seed)
      in
      let options =
        Opt.with_threshold (options_of_seed seed).Opt.threshold Opt.all_opts
      in
      ignore (Capri_compiler.Unroll.run options program);
      ignore (Capri_compiler.Form.run options program);
      match List.find_map dom_loops_mismatch program.Program.funcs with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "seed %d: %s" seed m)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_journal_exactly_once; prop_pgo_preserves; prop_memory_model;
        prop_parser_round_trip; prop_series_merge_laws; prop_dominators;
        prop_inter_liveness; prop_cache_model; prop_single_dirty_copy;
        prop_memory_reload; prop_reg_set_model; prop_dom_loops_model;
      ]
