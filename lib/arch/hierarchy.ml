module Metrics = Capri_obs.Metrics
module Obs = Capri_obs.Obs

type level = L1 | L2 | Dram | Nvm

(* Public snapshot; live cells are registry counters named cache_..,
   same scheme as Persist's. *)
type stats = {
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable dram_hits : int;
  mutable nvm_accesses : int;
  mutable writebacks : int;
  mutable invalidations : int;
}

type counters = {
  c_l1_hits : Metrics.Counter.t;
  c_l2_hits : Metrics.Counter.t;
  c_dram_hits : Metrics.Counter.t;
  c_nvm_accesses : Metrics.Counter.t;
  c_writebacks : Metrics.Counter.t;
  c_invalidations : Metrics.Counter.t;
}

type t = {
  config : Config.t;
  l1 : Cache.t array;  (* per core *)
  l2 : Cache.t;
  dram : Cache.t;
  on_nvm_writeback : cycle:int -> line:int -> unit;
  mutable fetched_dirty : bool;
      (* whether the copy the last [fetch_from_below] took was dirty: an
         out-parameter instead of a result tuple per miss *)
  mutable c : counters;
      (* registered in [metrics]; [reset] registers anew only when the
         registry changes *)
  mutable metrics : Metrics.t;  (* rebound by [reset ~obs] *)
  labels : Metrics.labels;
}

let pow2_ge n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Registered by [create], and by [reset] when the registry changed: the
   series names are literals, so a registration allocates no string. *)
let mk_counters metrics labels =
  let c name = Metrics.counter ~labels metrics name in
  {
    c_l1_hits = c "cache_l1_hits";
    c_l2_hits = c "cache_l2_hits";
    c_dram_hits = c "cache_dram_hits";
    c_nvm_accesses = c "cache_nvm_accesses";
    c_writebacks = c "cache_writebacks";
    c_invalidations = c "cache_invalidations";
  }

(* The fresh cells a null-registry registration would hand out, made in
   place. *)
let zero_counters c =
  let z cell = Metrics.Counter.set cell 0 in
  z c.c_l1_hits;
  z c.c_l2_hits;
  z c.c_dram_hits;
  z c.c_nvm_accesses;
  z c.c_writebacks;
  z c.c_invalidations

let create ?(obs = Obs.null) ?(labels = []) config ~on_nvm_writeback =
  let mk lines ways =
    let sets = max 1 (pow2_ge (lines / ways)) in
    Cache.create ~sets ~ways
  in
  let metrics = obs.Obs.metrics in
  {
    config;
    l1 =
      Array.init config.Config.cores (fun _ ->
          mk config.Config.l1_lines config.Config.l1_ways);
    l2 = mk config.Config.l2_lines config.Config.l2_ways;
    dram = Cache.create ~sets:(pow2_ge config.Config.dram_cache_lines) ~ways:1;
    on_nvm_writeback;
    fetched_dirty = false;
    c = mk_counters metrics labels;
    metrics;
    labels;
  }

(* [drop_all] emptied the caches at the power loss. The counters are
   what registering them again would return: an enabled registry's
   interned cells as they stand, the null registry's at zero. *)
let reset ?obs t =
  let metrics = t.metrics in
  (match obs with
   | Some (obs : Obs.t) -> t.metrics <- obs.Obs.metrics
   | None -> ());
  Array.iter Cache.reset t.l1;
  Cache.reset t.l2;
  Cache.reset t.dram;
  if t.metrics != metrics then t.c <- mk_counters t.metrics t.labels
  else if not (Metrics.enabled metrics) then zero_counters t.c

let latency (config : Config.t) = function
  | L1 -> config.l1_hit
  | L2 -> config.l2_hit
  | Dram -> config.dram_hit
  | Nvm -> config.nvm_read

(* Dirty eviction sinks one level down; clean evictions vanish. *)
let rec sink t ~cycle ~line ~dirty ~from =
  if dirty then begin
    Metrics.Counter.inc t.c.c_writebacks;
    match from with
    | L1 -> sink_into t ~cycle t.l2 ~line ~level:L2
    | L2 -> sink_into t ~cycle t.dram ~line ~level:Dram
    | Dram -> t.on_nvm_writeback ~cycle ~line
    | Nvm -> assert false
  end

and sink_into t ~cycle cache ~line ~level =
  let w = Cache.find cache line in
  if w >= 0 then Cache.touch_way cache w ~dirty:true
  else insert_into t ~cycle cache ~line ~dirty:true ~level

and insert_into t ~cycle cache ~line ~dirty ~level =
  let victim = Cache.insert cache line ~dirty in
  if victim <> Cache.no_line then
    sink t ~cycle ~line:victim ~dirty:(Cache.evicted_dirty cache) ~from:level

(* Invalidate every other L1's copy of [line] from core [i] on, counting
   each; returns whether any of them was dirty. The requesting [core]'s
   own L1 has just missed, so it is not probed. *)
let rec invalidate_l1s t ~core line i dirty =
  if i >= Array.length t.l1 then dirty
  else if i = core then invalidate_l1s t ~core line (i + 1) dirty
  else begin
    let l1 = Array.unsafe_get t.l1 i in
    let w = Cache.find l1 line in
    if w >= 0 then begin
      let d = Cache.invalidate_way l1 w in
      Metrics.Counter.inc t.c.c_invalidations;
      invalidate_l1s t ~core line (i + 1) (dirty || d)
    end
    else invalidate_l1s t ~core line (i + 1) dirty
  end

(* Find the line below the requesting L1 and remove it from there (it
   moves up). Other L1s are searched first: a copy there is the only
   one, and a dirty one migrates (it stays architecturally current, so
   nothing is written back) at an L2-like cost. Returns the level it was
   found at and leaves whether the copy was dirty in [fetched_dirty]. *)
let fetch_from_below t ~core ~line =
  if invalidate_l1s t ~core line 0 false then begin
    t.fetched_dirty <- true;
    L2
  end
  else begin
    let w = Cache.find t.l2 line in
    if w >= 0 then begin
      t.fetched_dirty <- Cache.invalidate_way t.l2 w;
      L2
    end
    else begin
      let w = Cache.find t.dram line in
      if w >= 0 then begin
        t.fetched_dirty <- Cache.invalidate_way t.dram w;
        Dram
      end
      else begin
        t.fetched_dirty <- false;
        Nvm
      end
    end
  end

let access t ~core ~cycle ~addr ~write =
  let line = Memory.line_of_addr addr in
  let l1 = t.l1.(core) in
  let w = Cache.find l1 line in
  if w >= 0 then begin
    (* Every miss takes the line away from any other L1, so an L1 holds
       the only L1 copy of each of its lines: a hit, read or write, owns
       the line already and needs no coherence action. *)
    Cache.touch_way l1 w ~dirty:write;
    Metrics.Counter.inc t.c.c_l1_hits;
    L1
  end
  else begin
    let found_at = fetch_from_below t ~core ~line in
    (match found_at with
     | L2 -> Metrics.Counter.inc t.c.c_l2_hits
     | Dram -> Metrics.Counter.inc t.c.c_dram_hits
     | Nvm -> Metrics.Counter.inc t.c.c_nvm_accesses
     | L1 -> assert false);
    insert_into t ~cycle l1 ~line ~dirty:(write || t.fetched_dirty) ~level:L1;
    found_at
  end

let load t ~core ~cycle ~addr = access t ~core ~cycle ~addr ~write:false
let store t ~core ~cycle ~addr = access t ~core ~cycle ~addr ~write:true

let flush_all t ~cycle =
  let flush cache =
    List.iter
      (fun line ->
        ignore (Cache.invalidate cache line);
        t.on_nvm_writeback ~cycle ~line)
      (Cache.dirty_lines cache)
  in
  Array.iter flush t.l1;
  flush t.l2;
  flush t.dram

let drop_all t =
  Array.iter Cache.clear t.l1;
  Cache.clear t.l2;
  Cache.clear t.dram

let l1 t ~core = t.l1.(core)

let stats t =
  let v = Metrics.Counter.value in
  {
    l1_hits = v t.c.c_l1_hits;
    l2_hits = v t.c.c_l2_hits;
    dram_hits = v t.c.c_dram_hits;
    nvm_accesses = v t.c.c_nvm_accesses;
    writebacks = v t.c.c_writebacks;
    invalidations = v t.c.c_invalidations;
  }

(* Publish per-cache allocation/eviction counts as registry series; [set]
   makes this idempotent, so callers may publish at any checkpoint. The
   per-core L1s fold into one series — their sum is the architectural
   figure and keeps the document independent of core count. *)
let publish t =
  let put name (s : Cache.stats list) =
    let tot f = List.fold_left (fun a x -> a + f x) 0 s in
    let set field v =
      Metrics.Counter.set
        (Metrics.counter ~labels:(("level", name) :: t.labels) t.metrics field)
        v
    in
    set "cache_insertions" (tot (fun (x : Cache.stats) -> x.Cache.insertions));
    set "cache_evictions" (tot (fun (x : Cache.stats) -> x.Cache.evictions));
    set "cache_dirty_evictions"
      (tot (fun (x : Cache.stats) -> x.Cache.dirty_evictions))
  in
  put "l1" (Array.to_list (Array.map Cache.stats t.l1));
  put "l2" [ Cache.stats t.l2 ];
  put "dram" [ Cache.stats t.dram ]
