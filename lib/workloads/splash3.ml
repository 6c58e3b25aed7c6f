open Capri_ir

let r = Reg.of_int
let rg i = Builder.reg (r i)
let im = Builder.imm
let sr i = r i

let default_threads = 4

(* Thread layout: every core runs "worker" with its id in r0. The worker
   is also the program's main (thread 0). *)
let spawn _program n =
  List.init n (fun tid ->
      { Capri_runtime.Executor.func = "worker"; args = [ (r 0, tid) ] })

(* Scratch conventions shared by the kernels below: r26/r27 barrier
   scratch, r25 lock scratch, r30 loop condition (Emit.counted_loop). *)
let bar ~nthreads f base =
  Emit.barrier f ~base ~nthreads ~s1:(sr 26) ~s2:(sr 27)

let kernel ~name ~description ~threads program =
  {
    Kernel.name;
    suite = Kernel.Splash3;
    description;
    program;
    threads = spawn program threads;
  }

(* ------------------------------------------------------------------ *)
(* barnes: O(n^2/T) force accumulation + barriered position updates.    *)
(* ------------------------------------------------------------------ *)

let barnes ?(threads = default_threads) ~scale () =
  let n = 8 * scale in
  let steps = 3 in
  let per = n / threads in
  let b = Builder.create () in
  let pos = Builder.alloc_init b (Array.init n (fun i -> (i * 19) mod 97)) in
  let force = Builder.alloc_init b (Array.make n 0) in
  let barrier_w = Builder.alloc_init b [| 0; 0 |] in
  let f = Builder.func b "worker" in
  (* r0 tid, r1 my base index, r9 step, r2 i, r3 j, r4 acc *)
  Builder.mul f (sr 1) (rg 0) (im per);
  Emit.counted_loop f ~idx:(sr 9) ~from:0 ~below:None ~bound:steps
    ~body:(fun () ->
      (* force phase over my slice *)
      Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:per
        ~body:(fun () ->
          Builder.li f (sr 4) 0;
          Builder.add f (sr 10) (rg 1) (rg 2);  (* my particle *)
          Emit.counted_loop f ~idx:(sr 3) ~from:0 ~below:None ~bound:n
            ~body:(fun () ->
              Builder.li f (sr 11) pos;
              Builder.add f (sr 11) (rg 11) (rg 3);
              Builder.load f (sr 12) ~base:(sr 11) ();
              Builder.sub f (sr 13) (rg 12) (rg 10);
              Builder.mul f (sr 13) (rg 13) (rg 13);
              Builder.binop f Instr.And (sr 13) (rg 13) (im 0xFFF);
              Builder.add f (sr 4) (rg 4) (rg 13));
          Builder.li f (sr 14) force;
          Builder.add f (sr 14) (rg 14) (rg 10);
          Builder.store f ~base:(sr 14) (rg 4));
      Builder.li f (sr 20) barrier_w;
      bar ~nthreads:threads f (sr 20);
      (* position update phase over my slice *)
      Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:per
        ~body:(fun () ->
          Builder.add f (sr 10) (rg 1) (rg 2);
          Builder.li f (sr 14) force;
          Builder.add f (sr 14) (rg 14) (rg 10);
          Builder.load f (sr 15) ~base:(sr 14) ();
          Builder.li f (sr 11) pos;
          Builder.add f (sr 11) (rg 11) (rg 10);
          Builder.load f (sr 12) ~base:(sr 11) ();
          Builder.add f (sr 12) (rg 12) (rg 15);
          Builder.binop f Instr.And (sr 12) (rg 12) (im 0xFFFF);
          Builder.store f ~base:(sr 11) (rg 12));
      Builder.li f (sr 20) barrier_w;
      bar ~nthreads:threads f (sr 20));
  Builder.li f (sr 11) pos;
  Builder.add f (sr 11) (rg 11) (rg 1);
  Builder.load f (sr 0) ~base:(sr 11) ();
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  kernel ~name:"barnes" ~threads
    ~description:
      "N-body force/update phases: O(n^2) accumulation, barrier-separated \
       phases, slice-local stores"
    program

(* ------------------------------------------------------------------ *)
(* fmm: two-level summaries + neighbour-cell interactions.              *)
(* ------------------------------------------------------------------ *)

let fmm ?(threads = default_threads) ~scale () =
  let cells = 32 in
  let per_cell = max 1 (scale / 2) in
  let n = cells * per_cell in
  let cells_per_thread = cells / threads in
  let b = Builder.create () in
  let body = Builder.alloc_init b (Array.init n (fun i -> (i * 7) mod 61) ) in
  let summary = Builder.alloc_init b (Array.make cells 0) in
  let out_f = Builder.alloc_init b (Array.make n 0) in
  let barrier_w = Builder.alloc_init b [| 0; 0 |] in
  let f = Builder.func b "worker" in
  (* r0 tid; phase 1: summarize my cells; phase 2: per body, sum the 4
     neighbouring cell summaries (short counted loop). *)
  Builder.mul f (sr 1) (rg 0) (im cells_per_thread);
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:cells_per_thread
    ~body:(fun () ->
      Builder.add f (sr 10) (rg 1) (rg 2);  (* cell *)
      Builder.li f (sr 4) 0;
      Emit.counted_loop f ~idx:(sr 3) ~from:0 ~below:None ~bound:per_cell
        ~body:(fun () ->
          Builder.mul f (sr 11) (rg 10) (im per_cell);
          Builder.add f (sr 11) (rg 11) (rg 3);
          Builder.li f (sr 12) body;
          Builder.add f (sr 12) (rg 12) (rg 11);
          Builder.load f (sr 13) ~base:(sr 12) ();
          Builder.add f (sr 4) (rg 4) (rg 13));
      Builder.li f (sr 14) summary;
      Builder.add f (sr 14) (rg 14) (rg 10);
      Builder.store f ~base:(sr 14) (rg 4));
  Builder.li f (sr 20) barrier_w;
  bar ~nthreads:threads f (sr 20);
  Builder.mul f (sr 1) (rg 0) (im (n / threads));
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:(n / threads)
    ~body:(fun () ->
      Builder.add f (sr 10) (rg 1) (rg 2);  (* body index *)
      Builder.binop f Instr.Div (sr 11) (rg 10) (im per_cell);  (* my cell *)
      Builder.li f (sr 4) 0;
      Emit.counted_loop f ~idx:(sr 3) ~from:0 ~below:None ~bound:4
        ~body:(fun () ->
          Builder.add f (sr 12) (rg 11) (rg 3);
          Builder.binop f Instr.Rem (sr 12) (rg 12) (im cells);
          Builder.li f (sr 13) summary;
          Builder.add f (sr 13) (rg 13) (rg 12);
          Builder.load f (sr 14) ~base:(sr 13) ();
          Builder.add f (sr 4) (rg 4) (rg 14));
      Builder.li f (sr 15) out_f;
      Builder.add f (sr 15) (rg 15) (rg 10);
      Builder.store f ~base:(sr 15) (rg 4));
  Builder.li f (sr 20) barrier_w;
  bar ~nthreads:threads f (sr 20);
  Builder.li f (sr 15) out_f;
  Builder.add f (sr 15) (rg 15) (rg 1);
  Builder.load f (sr 0) ~base:(sr 15) ();
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  kernel ~name:"fmm" ~threads
    ~description:
      "fast-multipole-style two-level interaction: cell summaries, \
       barrier, short neighbour loops per body"
    program

(* ------------------------------------------------------------------ *)
(* ocean: barriered Jacobi grid relaxation.                             *)
(* ------------------------------------------------------------------ *)

let ocean ?(threads = default_threads) ~scale () =
  let rows = 4 * threads in
  let cols = 4 * scale in
  let sweeps = 3 in
  let rows_per = rows / threads in
  let b = Builder.create () in
  let grid =
    Builder.alloc_init b (Array.init (rows * cols) (fun i -> (i * 5) mod 43))
  in
  let barrier_w = Builder.alloc_init b [| 0; 0 |] in
  let f = Builder.func b "worker" in
  Builder.mul f (sr 1) (rg 0) (im rows_per);  (* my first row *)
  Emit.counted_loop f ~idx:(sr 9) ~from:0 ~below:None ~bound:sweeps
    ~body:(fun () ->
      Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:rows_per
        ~body:(fun () ->
          Builder.add f (sr 10) (rg 1) (rg 2);  (* row *)
          Emit.counted_loop f ~idx:(sr 3) ~from:1 ~below:None
            ~bound:(cols - 1)
            ~body:(fun () ->
              Builder.mul f (sr 11) (rg 10) (im cols);
              Builder.add f (sr 11) (rg 11) (rg 3);
              Builder.li f (sr 12) grid;
              Builder.add f (sr 12) (rg 12) (rg 11);
              Builder.load f (sr 13) ~base:(sr 12) ~off:(-1) ();
              Builder.load f (sr 14) ~base:(sr 12) ~off:1 ();
              Builder.add f (sr 13) (rg 13) (rg 14);
              Builder.binop f Instr.Div (sr 13) (rg 13) (im 2);
              Builder.store f ~base:(sr 12) (rg 13)));
      Builder.li f (sr 20) barrier_w;
      bar ~nthreads:threads f (sr 20));
  Builder.mul f (sr 11) (rg 1) (im cols);
  Builder.li f (sr 12) grid;
  Builder.add f (sr 12) (rg 12) (rg 11);
  Builder.load f (sr 0) ~base:(sr 12) ~off:1 ();
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  kernel ~name:"ocean" ~threads
    ~description:
      "grid relaxation: row-sliced Jacobi sweeps, one store per cell, \
       barrier per sweep"
    program

(* ------------------------------------------------------------------ *)
(* radiosity: lock-protected work queue.                                *)
(* ------------------------------------------------------------------ *)

let radiosity ?(threads = default_threads) ~scale () =
  let tasks = 8 * scale in
  let patch_words = 16 in
  let b = Builder.create () in
  let next_task = Builder.alloc_init b [| 0 |] in
  let lock_w = Builder.alloc_init b [| 0 |] in
  let energy = Builder.alloc_init b (Array.make (tasks * 2) 0) in
  let patches = Builder.alloc_init b
      (Array.init patch_words (fun i -> 3 + (i * 7) mod 11)) in
  let f = Builder.func b "worker" in
  (* Loop: grab a task index under the lock; process it; stop when the
     counter passes the limit. *)
  let grab = Builder.block f "grab" in
  let work = Builder.block f "work" in
  let finish = Builder.block f "finish" in
  Builder.li f (sr 8) 0;
  Builder.jump f grab;
  Builder.switch f grab;
  Builder.li f (sr 21) lock_w;
  Emit.spin_lock f ~addr:(sr 21) ~scratch:(sr 25);
  Builder.li f (sr 22) next_task;
  Builder.load f (sr 2) ~base:(sr 22) ();
  Builder.add f (sr 10) (rg 2) (im 1);
  Builder.store f ~base:(sr 22) (rg 10);
  Builder.li f (sr 21) lock_w;
  Emit.spin_unlock f ~addr:(sr 21);
  Builder.binop f Instr.Lt (sr 11) (rg 2) (im tasks);
  Builder.branch f (rg 11) work finish;
  Builder.switch f work;
  (* patch interaction: short loop whose length comes from patch data *)
  Builder.binop f Instr.Rem (sr 12) (rg 2) (im patch_words);
  Builder.li f (sr 13) patches;
  Builder.add f (sr 13) (rg 13) (rg 12);
  Builder.load f (sr 3) ~base:(sr 13) ();
  Builder.li f (sr 4) 0;
  Emit.counted_loop f ~idx:(sr 5) ~from:0 ~below:(Some (sr 3)) ~bound:0
    ~body:(fun () ->
      Builder.mul f (sr 14) (rg 5) (rg 2);
      Builder.binop f Instr.And (sr 14) (rg 14) (im 0xFF);
      Builder.add f (sr 4) (rg 4) (rg 14));
  Builder.mul f (sr 15) (rg 2) (im 2);
  Builder.li f (sr 16) energy;
  Builder.add f (sr 16) (rg 16) (rg 15);
  Builder.store f ~base:(sr 16) ~off:0 (rg 4);
  Builder.store f ~base:(sr 16) ~off:1 (rg 2);
  Builder.add f (sr 8) (rg 8) (rg 4);
  Builder.jump f grab;
  Builder.switch f finish;
  Builder.binop f Instr.And (sr 0) (rg 8) (im 0xFFFFFF);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  kernel ~name:"radiosity" ~threads
    ~description:
      "task-queue parallelism: lock-protected counter, variable-length \
       patch interactions, paired energy stores"
    program

(* ------------------------------------------------------------------ *)
(* raytrace: independent pixels with random-length bounce loops.        *)
(* ------------------------------------------------------------------ *)

let raytrace ?(threads = default_threads) ~scale () =
  let pixels = threads * 8 * scale in
  let per = pixels / threads in
  let b = Builder.create () in
  let framebuffer = Builder.alloc_init b (Array.make pixels 0) in
  let f = Builder.func b "worker" in
  (* r0 tid, r1 rng, r2 pixel offset, r3 bounce count, r8 checksum *)
  Builder.mul f (sr 1) (rg 0) (im 9973);
  Builder.add f (sr 1) (rg 1) (im 17);
  Builder.mul f (sr 9) (rg 0) (im per);  (* my first pixel *)
  Builder.li f (sr 8) 0;
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:per
    ~body:(fun () ->
      Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 3) ~bound:12;
      Builder.add f (sr 3) (rg 3) (im 2);
      Builder.li f (sr 4) 0;
      (* bounce loop: unknown trip count, pure arithmetic *)
      Emit.counted_loop f ~idx:(sr 5) ~from:0 ~below:(Some (sr 3)) ~bound:0
        ~body:(fun () ->
          Emit.lcg f ~state:(sr 1);
          Builder.binop f Instr.Shr (sr 10) (rg 1) (im 7);
          Builder.binop f Instr.And (sr 10) (rg 10) (im 0xFF);
          Builder.add f (sr 4) (rg 4) (rg 10));
      Builder.add f (sr 11) (rg 9) (rg 2);
      Builder.li f (sr 12) framebuffer;
      Builder.add f (sr 12) (rg 12) (rg 11);
      Builder.store f ~base:(sr 12) (rg 4);
      Builder.add f (sr 8) (rg 8) (rg 4));
  Builder.binop f Instr.And (sr 0) (rg 8) (im 0xFFFFFF);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  kernel ~name:"raytrace" ~threads
    ~description:
      "per-pixel ray bouncing: random-length pure loops, one framebuffer \
       store per pixel, no synchronization"
    program

(* ------------------------------------------------------------------ *)
(* volrend: very short voxel-march loops (unrolling showcase).          *)
(* ------------------------------------------------------------------ *)

let volrend ?(threads = default_threads) ~scale () =
  let rays = threads * 10 * scale in
  let per = rays / threads in
  let voxels = 256 in
  let b = Builder.create () in
  let volume =
    Builder.alloc_init b (Array.init voxels (fun i -> (i * 29) mod 127))
  in
  let image = Builder.alloc_init b (Array.make rays 0) in
  let f = Builder.func b "worker" in
  Builder.mul f (sr 1) (rg 0) (im 311);
  Builder.add f (sr 1) (rg 1) (im 5);
  Builder.mul f (sr 9) (rg 0) (im per);
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:per
    ~body:(fun () ->
      (* march 2-5 voxels: the short-loop case of Figure 11 *)
      Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 3) ~bound:4;
      Builder.add f (sr 3) (rg 3) (im 2);
      Emit.lcg_bounded f ~state:(sr 1) ~dst:(sr 5) ~bound:voxels;
      Builder.li f (sr 4) 0;
      Emit.counted_loop f ~idx:(sr 6) ~from:0 ~below:(Some (sr 3)) ~bound:0
        ~body:(fun () ->
          Builder.add f (sr 10) (rg 5) (rg 6);
          Builder.binop f Instr.And (sr 10) (rg 10) (im (voxels - 1));
          Builder.li f (sr 11) volume;
          Builder.add f (sr 11) (rg 11) (rg 10);
          Builder.load f (sr 12) ~base:(sr 11) ();
          Builder.add f (sr 4) (rg 4) (rg 12));
      Builder.add f (sr 13) (rg 9) (rg 2);
      Builder.li f (sr 14) image;
      Builder.add f (sr 14) (rg 14) (rg 13);
      Builder.store f ~base:(sr 14) (rg 4));
  Builder.li f (sr 14) image;
  Builder.add f (sr 14) (rg 14) (rg 9);
  Builder.load f (sr 0) ~base:(sr 14) ();
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  kernel ~name:"volrend" ~threads
    ~description:
      "volume rendering: 2-5 step voxel marches of unknown trip count \
       (unrolling winner in the paper), one image store per ray"
    program

(* ------------------------------------------------------------------ *)
(* water-nsquared: O(n^2) with lock-protected global accumulators.      *)
(* ------------------------------------------------------------------ *)

let water_nsquared ?(threads = default_threads) ~scale () =
  let molecules = threads * 2 * scale in
  let per = molecules / threads in
  let b = Builder.create () in
  let posw =
    Builder.alloc_init b (Array.init molecules (fun i -> (i * 23) mod 89))
  in
  let global = Builder.alloc_init b [| 0 |] in
  let lock_w = Builder.alloc_init b [| 0 |] in
  let f = Builder.func b "worker" in
  Builder.mul f (sr 9) (rg 0) (im per);
  Builder.li f (sr 8) 0;
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:per
    ~body:(fun () ->
      Builder.add f (sr 10) (rg 9) (rg 2);
      Builder.li f (sr 4) 0;
      Emit.counted_loop f ~idx:(sr 3) ~from:0 ~below:None ~bound:molecules
        ~body:(fun () ->
          Builder.li f (sr 11) posw;
          Builder.add f (sr 11) (rg 11) (rg 3);
          Builder.load f (sr 12) ~base:(sr 11) ();
          Builder.sub f (sr 13) (rg 12) (rg 10);
          Builder.binop f Instr.And (sr 13) (rg 13) (im 0x3FF);
          Builder.add f (sr 4) (rg 4) (rg 13));
      (* fold the pair energy into the global accumulator under a lock *)
      Builder.li f (sr 21) lock_w;
      Emit.spin_lock f ~addr:(sr 21) ~scratch:(sr 25);
      Builder.li f (sr 22) global;
      Builder.load f (sr 14) ~base:(sr 22) ();
      Builder.add f (sr 14) (rg 14) (rg 4);
      Builder.store f ~base:(sr 22) (rg 14);
      Builder.li f (sr 21) lock_w;
      Emit.spin_unlock f ~addr:(sr 21);
      Builder.add f (sr 8) (rg 8) (rg 4));
  Builder.binop f Instr.And (sr 0) (rg 8) (im 0xFFFFFF);
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  kernel ~name:"water-nsquared" ~threads
    ~description:
      "O(n^2) molecular energies with a lock-protected global \
       accumulator: frequent atomics, low store density"
    program

(* ------------------------------------------------------------------ *)
(* water-spatial: cell lists with short per-cell loops.                 *)
(* ------------------------------------------------------------------ *)

let water_spatial ?(threads = default_threads) ~scale () =
  let cells = threads * 4 in
  let per_thread = cells / threads in
  let rounds = 3 * scale in
  let b = Builder.create () in
  let occupancy =
    Builder.alloc_init b (Array.init cells (fun i -> 2 + ((i * 3) mod 4)))
  in
  let cellsum = Builder.alloc_init b (Array.make cells 0) in
  let barrier_w = Builder.alloc_init b [| 0; 0 |] in
  let f = Builder.func b "worker" in
  Builder.mul f (sr 9) (rg 0) (im per_thread);
  Emit.counted_loop f ~idx:(sr 7) ~from:0 ~below:None ~bound:rounds
    ~body:(fun () ->
      Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:per_thread
        ~body:(fun () ->
          Builder.add f (sr 10) (rg 9) (rg 2);  (* my cell *)
          Builder.li f (sr 11) occupancy;
          Builder.add f (sr 11) (rg 11) (rg 10);
          Builder.load f (sr 3) ~base:(sr 11) ();  (* molecules here *)
          Builder.li f (sr 4) 0;
          (* short loop over the cell's molecules: unknown count 2-5 *)
          Emit.counted_loop f ~idx:(sr 5) ~from:0 ~below:(Some (sr 3)) ~bound:0
            ~body:(fun () ->
              Builder.mul f (sr 12) (rg 5) (rg 10);
              Builder.add f (sr 12) (rg 12) (rg 7);
              Builder.binop f Instr.And (sr 12) (rg 12) (im 0x1FF);
              Builder.add f (sr 4) (rg 4) (rg 12));
          Builder.li f (sr 13) cellsum;
          Builder.add f (sr 13) (rg 13) (rg 10);
          Builder.load f (sr 14) ~base:(sr 13) ();
          Builder.add f (sr 14) (rg 14) (rg 4);
          Builder.store f ~base:(sr 13) (rg 14));
      Builder.li f (sr 20) barrier_w;
      bar ~nthreads:threads f (sr 20));
  Builder.li f (sr 13) cellsum;
  Builder.add f (sr 13) (rg 13) (rg 9);
  Builder.load f (sr 0) ~base:(sr 13) ();
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  kernel ~name:"water-spatial" ~threads
    ~description:
      "cell-list molecular dynamics: 2-5 iteration per-cell loops of \
       unknown trip count, barriered rounds"
    program

(* ------------------------------------------------------------------ *)
(* radix: per-thread histograms, barrier, scatter.                      *)
(* ------------------------------------------------------------------ *)

let radix ?(threads = default_threads) ~scale () =
  let n = threads * 8 * scale in
  let per = n / threads in
  let buckets = 16 in
  let b = Builder.create () in
  let keys = Builder.alloc_init b (Array.init n (fun i -> (i * 2654435761) land 0xFFFF)) in
  let hist = Builder.alloc_init b (Array.make (threads * buckets) 0) in
  let out_arr = Builder.alloc_init b (Array.make n 0) in
  let barrier_w = Builder.alloc_init b [| 0; 0 |] in
  let f = Builder.func b "worker" in
  Builder.mul f (sr 9) (rg 0) (im per);  (* my first key *)
  Builder.mul f (sr 19) (rg 0) (im buckets);  (* my histogram base *)
  (* histogram phase: one load + one store per key *)
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:per
    ~body:(fun () ->
      Builder.add f (sr 10) (rg 9) (rg 2);
      Builder.li f (sr 11) keys;
      Builder.add f (sr 11) (rg 11) (rg 10);
      Builder.load f (sr 12) ~base:(sr 11) ();
      Builder.binop f Instr.And (sr 12) (rg 12) (im (buckets - 1));
      Builder.add f (sr 13) (rg 19) (rg 12);
      Builder.li f (sr 14) hist;
      Builder.add f (sr 14) (rg 14) (rg 13);
      Builder.load f (sr 15) ~base:(sr 14) ();
      Builder.add f (sr 15) (rg 15) (im 1);
      Builder.store f ~base:(sr 14) (rg 15));
  Builder.li f (sr 20) barrier_w;
  bar ~nthreads:threads f (sr 20);
  (* scatter phase: write each key into my slice keyed region (dense
     stores) *)
  Emit.counted_loop f ~idx:(sr 2) ~from:0 ~below:None ~bound:per
    ~body:(fun () ->
      Builder.add f (sr 10) (rg 9) (rg 2);
      Builder.li f (sr 11) keys;
      Builder.add f (sr 11) (rg 11) (rg 10);
      Builder.load f (sr 12) ~base:(sr 11) ();
      Builder.li f (sr 16) out_arr;
      Builder.add f (sr 16) (rg 16) (rg 10);
      Builder.store f ~base:(sr 16) (rg 12);
      Builder.store f ~base:(sr 11) (im 0));
  Builder.li f (sr 20) barrier_w;
  bar ~nthreads:threads f (sr 20);
  Builder.li f (sr 16) out_arr;
  Builder.add f (sr 16) (rg 16) (rg 9);
  Builder.load f (sr 0) ~base:(sr 16) ();
  Builder.out f (rg 0);
  Builder.halt f;
  let program = Builder.finish b ~main:"worker" in
  kernel ~name:"radix" ~threads
    ~description:
      "radix-sort phases: per-thread histogram updates, barrier, dense \
       scatter stores"
    program
