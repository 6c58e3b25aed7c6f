open Capri_ir

let r = Reg.of_int
let rg i = Builder.reg (r i)
let im = Builder.imm
let sr i = r i

let single program =
  [ { Capri_runtime.Executor.func = program.Program.main; args = [] } ]

(* ------------------------------------------------------------------ *)
(* genome: open-addressing hash-set insertion.                          *)
(* ------------------------------------------------------------------ *)

let genome ~scale =
  let table_size = 256 in
  let inserts = 12 * scale in
  let b = Builder.create () in
  let table = Builder.alloc_init b (Array.make table_size 0) in
  let f = Builder.func b "main" in
  (* r1 rng, r2 insert idx, r3 key, r4 slot, r8 collisions *)
  Builder.li f (sr 1) 42;
  Builder.li f (sr 8) 0;
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:inserts
    ~body:(fun () ->
      Emit.lcg f ~state:(sr 1);
      Builder.binop f Instr.Or (sr 3) (rg 1) (im 1);  (* keys are nonzero *)
      Builder.binop f Instr.Rem (sr 4) (rg 3) (im table_size);
      (* Linear probing: unknown-trip search for a free or equal slot. *)
      let probe = Builder.block f "probe" in
      let occupied = Builder.block f "occupied" in
      let place = Builder.block f "place" in
      let next = Builder.block f "next" in
      let done_ = Builder.block f "insert.done" in
      Builder.jump f probe;
      Builder.switch f probe;
      Builder.li f (sr 10) table;
      Builder.add f (sr 10) (rg 10) (rg 4);
      Builder.load f (sr 11) ~base:(sr 10) ();
      Builder.binop f Instr.Eq (sr 12) (rg 11) (im 0);
      Builder.branch f (rg 12) place occupied;
      Builder.switch f occupied;
      Builder.binop f Instr.Eq (sr 12) (rg 11) (rg 3);
      Builder.branch f (rg 12) done_ next;
      Builder.switch f next;
      Builder.add f (sr 8) (rg 8) (im 1);
      Builder.add f (sr 4) (rg 4) (im 1);
      Builder.binop f Instr.Rem (sr 4) (rg 4) (im table_size);
      Builder.jump f probe;
      Builder.switch f place;
      Builder.store f ~base:(sr 10) (rg 3);
      Builder.jump f done_;
      Builder.switch f done_);
  Builder.mv f (sr 0) (sr 8);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "genome";
    suite = Kernel.Stamp;
    description =
      "gene-segment deduplication: open-addressing hash inserts, \
       unknown-length probe loops, scattered stores";
    program;
    threads = single program;
  }

(* ------------------------------------------------------------------ *)
(* intruder: packet reassembly into per-flow queues.                    *)
(* ------------------------------------------------------------------ *)

let intruder ~scale =
  let flows = 16 in
  let flow_cap = 64 in
  let packets = 10 * scale in
  let b = Builder.create () in
  (* per-flow: [0] = length, [1..] = payload words *)
  let queues = Builder.alloc_init b (Array.make (flows * flow_cap) 0) in
  let f = Builder.func b "main" in
  (* r1 rng, r2 packet idx, r3 flow, r4 kind, r8 checksum *)
  Builder.li f (sr 1) 99;
  Builder.li f (sr 8) 0;
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:packets
    ~body:(fun () ->
      Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 3) ~bound:flows;
      Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 4) ~bound:4;
      Builder.mul f (sr 10) (rg 3) (im flow_cap);
      Builder.li f (sr 11) queues;
      Builder.add f (sr 10) (rg 10) (rg 11);  (* flow base *)
      let fragment = Builder.block f "fragment" in
      let flush = Builder.block f "flush" in
      let done_ = Builder.block f "pkt.done" in
      Builder.binop f Instr.Eq (sr 12) (rg 4) (im 0);
      Builder.branch f (rg 12) flush fragment;
      (* append a fragment to the flow queue *)
      Builder.switch f fragment;
      Builder.load f (sr 13) ~base:(sr 10) ();
      Builder.binop f Instr.Rem (sr 13) (rg 13) (im (flow_cap - 2));
      Builder.add f (sr 14) (rg 13) (im 1);
      Builder.add f (sr 15) (rg 10) (rg 14);
      Builder.store f ~base:(sr 15) (rg 1);
      Builder.add f (sr 13) (rg 13) (im 1);
      Builder.store f ~base:(sr 10) (rg 13);
      Builder.jump f done_;
      (* flush: sum and reset the queue (unknown-trip scan) *)
      Builder.switch f flush;
      Builder.load f (sr 13) ~base:(sr 10) ();
      Emit.counted_loop f ~idx:(sr 5) ~from:0 ~below:(Some (sr 13)) ~bound:0
        ~body:(fun () ->
          Builder.add f (sr 15) (rg 5) (im 1);
          Builder.add f (sr 15) (rg 15) (rg 10);
          Builder.load f (sr 16) ~base:(sr 15) ();
          Builder.add f (sr 8) (rg 8) (rg 16));
      Builder.store f ~base:(sr 10) (im 0);
      Builder.jump f done_;
      Builder.switch f done_);
  Builder.binop f Instr.And (sr 0) (rg 8) (im 0xFFFFFF);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "intruder";
    suite = Kernel.Stamp;
    description =
      "packet reassembly: branchy per-flow dispatch, queue appends, \
       flush scans of unknown length";
    program;
    threads = single program;
  }

(* ------------------------------------------------------------------ *)
(* labyrinth: breadth-first grid expansion.                             *)
(* ------------------------------------------------------------------ *)

let labyrinth ~scale =
  let side = 16 in
  let cells = side * side in
  let routes = 2 * scale in
  let b = Builder.create () in
  let grid = Builder.alloc_init b (Array.make cells 0) in
  let frontier = Builder.alloc_init b (Array.make cells 0) in
  let f = Builder.func b "main" in
  (* r1 rng, r2 route idx, r3 frontier length, r4 pos, r8 checksum *)
  Builder.li f (sr 1) 7;
  Builder.li f (sr 8) 0;
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:routes
    ~body:(fun () ->
      (* seed the frontier with a random start *)
      Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 4) ~bound:cells;
      Builder.li f (sr 10) frontier;
      Builder.store f ~base:(sr 10) (rg 4);
      Builder.li f (sr 3) 1;
      (* expand for a bounded number of waves *)
      Emit.counted_loop f ~idx:(sr 5) ~from:0 ~below:None ~bound:6
        ~body:(fun () ->
          (* mark every frontier cell, then build the next frontier by
             shifting each cell one step in a random direction *)
          Emit.counted_loop f ~idx:(sr 6) ~from:0 ~below:(Some (sr 3)) ~bound:0
            ~body:(fun () ->
              Builder.li f (sr 10) frontier;
              Builder.add f (sr 10) (rg 10) (rg 6);
              Builder.load f (sr 11) ~base:(sr 10) ();
              Builder.li f (sr 12) grid;
              Builder.add f (sr 12) (rg 12) (rg 11);
              Builder.load f (sr 13) ~base:(sr 12) ();
              Builder.add f (sr 13) (rg 13) (im 1);
              Builder.store f ~base:(sr 12) (rg 13);  (* visited mark *)
              Builder.add f (sr 8) (rg 8) (rg 11);
              (* move the cell for the next wave *)
              Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 14) ~bound:4;
              Builder.mul f (sr 14) (rg 14) (im 2);
              Builder.sub f (sr 14) (rg 14) (im 3);  (* -3,-1,1,3 *)
              Builder.add f (sr 11) (rg 11) (rg 14);
              Builder.binop f Instr.And (sr 11) (rg 11) (im (cells - 1));
              Builder.store f ~base:(sr 10) (rg 11))));
  Builder.binop f Instr.And (sr 0) (rg 8) (im 0xFFFFFF);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "labyrinth";
    suite = Kernel.Stamp;
    description =
      "maze routing: wavefront expansion with visited-mark store bursts \
       and data-dependent frontier sizes";
    program;
    threads = single program;
  }

(* ------------------------------------------------------------------ *)
(* ssca2: scatter updates with very short loops.                        *)
(* ------------------------------------------------------------------ *)

let ssca2 ~scale =
  let vertices = 128 in
  let edges = 16 * scale in
  let b = Builder.create () in
  let degree = Builder.alloc_init b (Array.make vertices 0) in
  let weight = Builder.alloc_init b (Array.make vertices 0) in
  let f = Builder.func b "main" in
  (* r1 rng, r2 edge idx, r3 endpoints to touch (1-3, unknown), r8 sum *)
  Builder.li f (sr 1) 2024;
  Builder.li f (sr 8) 0;
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:edges
    ~body:(fun () ->
      Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 3) ~bound:3;
      Builder.add f (sr 3) (rg 3) (im 1);
      (* The paper calls out ssca2's short loops: 1-3 iterations. *)
      Emit.counted_loop f ~idx:(sr 4) ~from:0 ~below:(Some (sr 3)) ~bound:0
        ~body:(fun () ->
          Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 10) ~bound:vertices;
          Builder.li f (sr 11) degree;
          Builder.add f (sr 11) (rg 11) (rg 10);
          Builder.load f (sr 12) ~base:(sr 11) ();
          Builder.add f (sr 12) (rg 12) (im 1);
          Builder.store f ~base:(sr 11) (rg 12);
          Builder.li f (sr 13) weight;
          Builder.add f (sr 13) (rg 13) (rg 10);
          Builder.store f ~base:(sr 13) (rg 2);
          Builder.add f (sr 8) (rg 8) (rg 12)));
  Builder.binop f Instr.And (sr 0) (rg 8) (im 0xFFFFFF);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "ssca2";
    suite = Kernel.Stamp;
    description =
      "graph kernel: scatter degree/weight updates inside 1-3 iteration \
       loops of unknown trip count (unrolling winner in the paper)";
    program;
    threads = single program;
  }

(* ------------------------------------------------------------------ *)
(* vacation: binary search tree reservations.                           *)
(* ------------------------------------------------------------------ *)

let vacation ~scale =
  let arena_nodes = 512 in
  let ops = 8 * scale in
  let b = Builder.create () in
  (* node: [0] = key, [1] = left idx, [2] = right idx, [3] = bookings;
     index 0 is the null sentinel, index 1 the root. *)
  let arena = Builder.alloc_init b (Array.make (arena_nodes * 4) 0) in
  let top = Builder.alloc_init b [| 2 |] in  (* bump pointer *)
  let f = Builder.func b "main" in
  Builder.li f (sr 1) 31337;
  Builder.li f (sr 8) 0;
  (* initialize the root: key 500 *)
  Builder.li f (sr 10) arena;
  Builder.store f ~base:(sr 10) ~off:4 (im 500);
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:ops
    ~body:(fun () ->
      Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 3) ~bound:1000;  (* key *)
      Builder.li f (sr 4) 1;  (* cursor = root *)
      let walk = Builder.block f "walk" in
      let found = Builder.block f "found" in
      let go_side = Builder.block f "side" in
      let attach = Builder.block f "attach" in
      let descend = Builder.block f "descend" in
      let done_ = Builder.block f "op.done" in
      Builder.jump f walk;
      Builder.switch f walk;
      Builder.li f (sr 10) arena;
      Builder.mul f (sr 11) (rg 4) (im 4);
      Builder.add f (sr 10) (rg 10) (rg 11);  (* node base *)
      Builder.load f (sr 12) ~base:(sr 10) ~off:0 ();  (* node key *)
      Builder.binop f Instr.Eq (sr 13) (rg 12) (rg 3);
      Builder.branch f (rg 13) found go_side;
      Builder.switch f found;
      (* book it *)
      Builder.load f (sr 14) ~base:(sr 10) ~off:3 ();
      Builder.add f (sr 14) (rg 14) (im 1);
      Builder.store f ~base:(sr 10) ~off:3 (rg 14);
      Builder.add f (sr 8) (rg 8) (rg 14);
      Builder.jump f done_;
      Builder.switch f go_side;
      (* side offset: 1 for left (key < node), 2 for right *)
      Builder.binop f Instr.Lt (sr 15) (rg 3) (rg 12);
      Builder.binop f Instr.Sub (sr 15) (im 2) (rg 15);
      Builder.add f (sr 16) (rg 10) (rg 15);
      Builder.load f (sr 17) ~base:(sr 16) ();  (* child idx *)
      Builder.binop f Instr.Eq (sr 18) (rg 17) (im 0);
      Builder.branch f (rg 18) attach descend;
      Builder.switch f attach;
      (* allocate a node from the bump arena and link it *)
      Builder.li f (sr 19) top;
      Builder.load f (sr 20) ~base:(sr 19) ();
      Builder.binop f Instr.Rem (sr 20) (rg 20) (im arena_nodes);
      Builder.store f ~base:(sr 16) (rg 20);
      Builder.li f (sr 21) arena;
      Builder.mul f (sr 22) (rg 20) (im 4);
      Builder.add f (sr 21) (rg 21) (rg 22);
      Builder.store f ~base:(sr 21) ~off:0 (rg 3);
      Builder.store f ~base:(sr 21) ~off:1 (im 0);
      Builder.store f ~base:(sr 21) ~off:2 (im 0);
      Builder.store f ~base:(sr 21) ~off:3 (im 1);
      Builder.add f (sr 20) (rg 20) (im 1);
      Builder.store f ~base:(sr 19) (rg 20);
      Builder.jump f done_;
      Builder.switch f descend;
      Builder.mv f (sr 4) (sr 17);
      Builder.jump f walk;
      Builder.switch f done_);
  Builder.binop f Instr.And (sr 0) (rg 8) (im 0xFFFFFF);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"main" in
  {
    Kernel.name = "vacation";
    suite = Kernel.Stamp;
    description =
      "reservation index: binary-search-tree walks of unknown depth, \
       bump-arena node allocation, booking-count updates";
    program;
    threads = single program;
  }
