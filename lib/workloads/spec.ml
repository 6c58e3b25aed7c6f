open Capri_ir

let r = Reg.of_int
let rg i = Builder.reg (r i)
let im = Builder.imm
let sr i = r i

let single program =
  [ { Capri_runtime.Executor.func = program.Program.main; args = [] } ]

(* ------------------------------------------------------------------ *)
(* 505.mcf_r: pointer chasing over an irregular node ring.             *)
(* ------------------------------------------------------------------ *)

let mcf ~scale =
  let nodes = 64 + (scale * 16) in
  let rounds = 4 * scale in
  let b = Builder.create () in
  (* node i: [0] = successor index, [1] = weight *)
  let arr =
    Builder.alloc_init b
      (Array.init (nodes * 8) (fun w ->
           let i = w / 8 in
           match w mod 8 with
           | 0 -> ((i * 7) + 3) mod nodes
           | 1 -> (i * 13) mod 101
           | _ -> 0))
  in
  let f = Builder.func b "main" in
  (* r1 arr, r2 cursor, r3 checksum, r4 round, r5 chain length, r6 k,
     r10-r12 temps *)
  Builder.li f (sr 1) arr;
  Builder.li f (sr 2) 0;
  Builder.li f (sr 3) 0;
  Emit.counted_loop f ~idx:(sr 4) ~from:0 ~below:None ~bound:rounds
    ~body:(fun () ->
      (* Chain length depends on loaded data: unknown at compile time. *)
      Builder.mul f (sr 10) (rg 2) (im 8);
      Builder.add f (sr 10) (rg 10) (rg 1);
      Builder.load f (sr 5) ~base:(sr 10) ~off:1 ();
      Builder.binop f Instr.Rem (sr 5) (rg 5) (im 17);
      Builder.add f (sr 5) (rg 5) (im 3);
      Emit.counted_loop f ~idx:(sr 6) ~from:0 ~below:(Some (sr 5)) ~bound:0
        ~body:(fun () ->
          Builder.mul f (sr 10) (rg 2) (im 8);
          Builder.add f (sr 10) (rg 10) (rg 1);
          Builder.load f (sr 2) ~base:(sr 10) ~off:0 ();
          Builder.load f (sr 11) ~base:(sr 10) ~off:1 ();
          Builder.add f (sr 3) (rg 3) (rg 11));
      (* Occasionally update the visited node's weight (low density). *)
      Builder.binop f Instr.And (sr 12) (rg 4) (im 3);
      let update = Builder.block f "update" in
      let skip = Builder.block f "skip" in
      Builder.binop f Instr.Eq (sr 12) (rg 12) (im 0);
      Builder.branch f (rg 12) update skip;
      Builder.switch f update;
      Builder.mul f (sr 10) (rg 2) (im 8);
      Builder.add f (sr 10) (rg 10) (rg 1);
      Builder.store f ~base:(sr 10) ~off:1 (rg 3);
      Builder.jump f skip;
      Builder.switch f skip);
  Builder.mv f (sr 0) (sr 3);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "505.mcf_r";
    suite = Kernel.Spec;
    description =
      "network-simplex-like pointer chasing: irregular successor ring, \
       data-dependent chain lengths, sparse weight updates";
    program;
    threads = single program;
  }

(* ------------------------------------------------------------------ *)
(* 531.deepsjeng_r: recursive search with make/unmake stores.          *)
(* ------------------------------------------------------------------ *)

let deepsjeng ~scale =
  let depth = 4 + min 3 (scale / 6) in
  let rounds = 2 * scale in
  let board_words = 64 in
  let b = Builder.create () in
  let board = Builder.alloc_init b (Array.init board_words (fun i -> i * 3)) in
  (* search(r0 = depth, r1 = rng) -> r0 = score *)
  let f = Builder.func b "search" in
  let leaf = Builder.block f "leaf" in
  let node = Builder.block f "node" in
  Builder.binop f Instr.Le (sr 4) (rg 0) (im 0);
  Builder.branch f (rg 4) leaf node;
  Builder.switch f leaf;
  (* Leaf evaluation: scan a quarter of the board (mobility/material
     terms) — real engines burn most cycles here, between calls. *)
  Builder.li f (sr 9) 0;
  Emit.counted_loop f ~idx:(sr 8) ~from:0 ~below:None ~bound:16
    ~body:(fun () ->
      Builder.binop f Instr.And (sr 10) (rg 1) (im 63);
      Builder.add f (sr 10) (rg 10) (rg 8);
      Builder.binop f Instr.And (sr 10) (rg 10) (im 63);
      Builder.li f (sr 11) board;
      Builder.add f (sr 11) (rg 11) (rg 10);
      Builder.load f (sr 12) ~base:(sr 11) ();
      Builder.mul f (sr 13) (rg 12) (im 3);
      Builder.add f (sr 13) (rg 13) (rg 8);
      Builder.binop f Instr.Xor (sr 9) (rg 9) (rg 13));
  Builder.add f (sr 0) (rg 1) (rg 9);
  Builder.binop f Instr.And (sr 0) (rg 0) (im 255);
  Builder.ret f;
  Builder.switch f node;
  (* Move ordering heuristics: pure arithmetic between calls. *)
  Emit.lcg f ~state:(sr 1);
  Builder.binop f Instr.Shr (sr 9) (rg 1) (im 3);
  Builder.mul f (sr 9) (rg 9) (im 13);
  Builder.binop f Instr.Xor (sr 9) (rg 9) (rg 0);
  Builder.binop f Instr.And (sr 9) (rg 9) (im 1023);
  Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 5) ~bound:board_words;
  Builder.li f (sr 6) board;
  Builder.add f (sr 6) (rg 6) (rg 5);
  Builder.load f (sr 7) ~base:(sr 6) ();
  Builder.store f ~base:(sr 6) (rg 0);  (* make move *)
  Builder.sub f Reg.sp (Builder.reg Reg.sp) (im 3);
  Builder.store f ~base:Reg.sp ~off:0 (rg 6);
  Builder.store f ~base:Reg.sp ~off:1 (rg 7);
  Builder.store f ~base:Reg.sp ~off:2 (rg 0);
  Builder.sub f (sr 0) (rg 0) (im 1);
  Builder.call_cont f "search";
  (* r0 = score of the first child *)
  Builder.load f (sr 2) ~base:Reg.sp ~off:2 ();  (* depth *)
  Builder.mv f (sr 1) (sr 0);  (* child score seeds the second rng *)
  Builder.store f ~base:Reg.sp ~off:2 (rg 0);  (* slot now holds score1 *)
  Builder.sub f (sr 0) (rg 2) (im 1);
  Builder.call_cont f "search";
  Builder.load f (sr 3) ~base:Reg.sp ~off:2 ();  (* score1 *)
  Builder.load f (sr 6) ~base:Reg.sp ~off:0 ();
  Builder.load f (sr 7) ~base:Reg.sp ~off:1 ();
  Builder.store f ~base:(sr 6) (rg 7);  (* unmake move *)
  Builder.add f (sr 0) (rg 0) (rg 3);
  Builder.binop f Instr.And (sr 0) (rg 0) (im 0xFFFF);
  Builder.add f Reg.sp (Builder.reg Reg.sp) (im 3);
  Builder.ret f;
  let m = Builder.func b "main" in
  (* r8 acc, r9 round counter kept in a callee-safe way via stack *)
  Builder.li m (sr 8) 0;
  Emit.counted_loop m ~idx:(sr 9) ~from:0 ~below:None ~bound:rounds
    ~body:(fun () ->
      Builder.sub m Reg.sp (Builder.reg Reg.sp) (im 2);
      Builder.store m ~base:Reg.sp ~off:0 (rg 8);
      Builder.store m ~base:Reg.sp ~off:1 (rg 9);
      Builder.li m (sr 0) depth;
      Builder.add m (sr 1) (rg 9) (im 12345);
      Builder.call_cont m "search";
      Builder.load m (sr 8) ~base:Reg.sp ~off:0 ();
      Builder.load m (sr 9) ~base:Reg.sp ~off:1 ();
      Builder.add m (sr 8) (rg 8) (rg 0);
      Builder.add m Reg.sp (Builder.reg Reg.sp) (im 2));
  Builder.mv m (sr 0) (sr 8);
  Builder.out m (rg 0);
  Builder.halt m;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "531.deepsjeng_r";
    suite = Kernel.Spec;
    description =
      "recursive game-tree search: deep call chains, make/unmake board \
       stores, branchy evaluation";
    program;
    threads = single program;
  }

(* ------------------------------------------------------------------ *)
(* 541.leela_r: Monte-Carlo playouts with visit-count updates.         *)
(* ------------------------------------------------------------------ *)

let leela ~scale =
  let tree_nodes = 128 in
  let playouts = 6 * scale in
  let b = Builder.create () in
  let visits = Builder.alloc_init b (Array.make tree_nodes 0) in
  let values = Builder.alloc_init b (Array.make tree_nodes 0) in
  let f = Builder.func b "main" in
  (* r1 rng, r2 playout idx, r3 node, r4 move count, r5 k, r8 checksum *)
  Builder.li f (sr 1) 777;
  Builder.li f (sr 8) 0;
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:playouts
    ~body:(fun () ->
      Builder.li f (sr 3) 0;
      (* Playout length is random: unknown-trip loop. *)
      Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 4) ~bound:24;
      Builder.add f (sr 4) (rg 4) (im 4);
      Emit.counted_loop f ~idx:(sr 5) ~from:0 ~below:(Some (sr 4)) ~bound:0
        ~body:(fun () ->
          (* descend to a pseudo-random child and bump its visit count *)
          Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 10) ~bound:tree_nodes;
          Builder.mv f (sr 3) (sr 10);
          Builder.li f (sr 11) visits;
          Builder.add f (sr 11) (rg 11) (rg 3);
          Builder.load f (sr 12) ~base:(sr 11) ();
          Builder.add f (sr 12) (rg 12) (im 1);
          Builder.store f ~base:(sr 11) (rg 12));
      (* back up the playout result into the last node's value *)
      Builder.binop f Instr.And (sr 13) (rg 1) (im 63);
      Builder.li f (sr 11) values;
      Builder.add f (sr 11) (rg 11) (rg 3);
      Builder.load f (sr 12) ~base:(sr 11) ();
      Builder.add f (sr 12) (rg 12) (rg 13);
      Builder.store f ~base:(sr 11) (rg 12);
      Builder.add f (sr 8) (rg 8) (rg 12));
  Builder.mv f (sr 0) (sr 8);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "541.leela_r";
    suite = Kernel.Spec;
    description =
      "Monte-Carlo tree playouts: random-length descent loops, \
       visit-count and value updates, moderate store density";
    program;
    threads = single program;
  }

(* ------------------------------------------------------------------ *)
(* 508.namd_r: short data-dependent neighbour loops per atom.          *)
(* ------------------------------------------------------------------ *)

let namd ~scale =
  let atoms = 32 * scale in
  let b = Builder.create () in
  (* positions[i], forces[i], neighbour count per atom in counts[i] *)
  let pos = Builder.alloc_init b (Array.init atoms (fun i -> (i * 37) mod 199)) in
  let forces = Builder.alloc_init b (Array.make atoms 0) in
  let counts =
    Builder.alloc_init b (Array.init atoms (fun i -> 2 + ((i * 11) mod 5)))
  in
  let f = Builder.func b "main" in
  (* r1 atom idx, r2 neighbour count, r3 k, r4 force acc, r8 checksum *)
  Builder.li f (sr 8) 0;
  Emit.counted_loop f ~idx:(sr 1) ~from:0 ~below:None ~bound:atoms
    ~body:(fun () ->
      Builder.li f (sr 10) counts;
      Builder.add f (sr 10) (rg 10) (rg 1);
      Builder.load f (sr 2) ~base:(sr 10) ();
      Builder.li f (sr 4) 0;
      (* Very short loop with an unknown trip count: the Figure 2 case. *)
      Emit.counted_loop f ~idx:(sr 3) ~from:0 ~below:(Some (sr 2)) ~bound:0
        ~body:(fun () ->
          Builder.add f (sr 11) (rg 1) (rg 3);
          Builder.binop f Instr.Rem (sr 11) (rg 11) (im atoms);
          Builder.li f (sr 12) pos;
          Builder.add f (sr 12) (rg 12) (rg 11);
          Builder.load f (sr 13) ~base:(sr 12) ();
          Builder.mul f (sr 13) (rg 13) (rg 13);
          Builder.binop f Instr.And (sr 13) (rg 13) (im 0xFFFF);
          Builder.add f (sr 4) (rg 4) (rg 13));
      Builder.li f (sr 10) forces;
      Builder.add f (sr 10) (rg 10) (rg 1);
      Builder.store f ~base:(sr 10) (rg 4);
      Builder.add f (sr 8) (rg 8) (rg 4));
  Builder.mv f (sr 0) (sr 8);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "508.namd_r";
    suite = Kernel.Spec;
    description =
      "molecular-dynamics force loop: 2-6 iteration neighbour loops of \
       unknown trip count (speculative unrolling showcase), one force \
       store per atom";
    program;
    threads = single program;
  }

(* ------------------------------------------------------------------ *)
(* 519.lbm_r: streaming stencil with high store density.               *)
(* ------------------------------------------------------------------ *)

let lbm ~scale =
  let cells = 16 * scale in
  let dirs = 8 in
  let b = Builder.create () in
  let src =
    Builder.alloc_init b
      (Array.init (cells * dirs) (fun w -> (w * 31) mod 257))
  in
  let dst = Builder.alloc_init b (Array.make (cells * dirs) 0) in
  let f = Builder.func b "main" in
  (* r1 cell, r2 dir, r8 checksum; every direction is loaded, relaxed and
     streamed to the neighbour cell: one store per direction. *)
  Builder.li f (sr 8) 0;
  Emit.counted_loop f ~idx:(sr 1) ~from:0 ~below:None ~bound:cells
    ~body:(fun () ->
      (* Known-trip inner loop over the 8 lattice directions: absorbable. *)
      Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:dirs
        ~body:(fun () ->
          Builder.mul f (sr 10) (rg 1) (im dirs);
          Builder.add f (sr 10) (rg 10) (rg 2);
          Builder.li f (sr 11) src;
          Builder.add f (sr 11) (rg 11) (rg 10);
          Builder.load f (sr 12) ~base:(sr 11) ();
          (* relax: f' = f - (f - eq)/2 with eq = dir * 5 *)
          Builder.mul f (sr 13) (rg 2) (im 5);
          Builder.sub f (sr 14) (rg 12) (rg 13);
          Builder.binop f Instr.Div (sr 14) (rg 14) (im 2);
          Builder.sub f (sr 12) (rg 12) (rg 14);
          (* stream to neighbour cell *)
          Builder.add f (sr 15) (rg 1) (rg 2);
          Builder.binop f Instr.Rem (sr 15) (rg 15) (im cells);
          Builder.mul f (sr 15) (rg 15) (im dirs);
          Builder.add f (sr 15) (rg 15) (rg 2);
          Builder.li f (sr 16) dst;
          Builder.add f (sr 16) (rg 16) (rg 15);
          Builder.store f ~base:(sr 16) (rg 12);
          Builder.add f (sr 8) (rg 8) (rg 12)));
  Builder.binop f Instr.And (sr 0) (rg 8) (im 0xFFFFFF);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "519.lbm_r";
    suite = Kernel.Spec;
    description =
      "lattice-Boltzmann streaming stencil: one store per lattice \
       direction (high store density), short counted inner loops";
    program;
    threads = single program;
  }
