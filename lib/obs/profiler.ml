(* Region profiler: the distributions of per-region persistence costs.

   The executor tallies each region close once, into its static region's
   row; the profiler adds what a row cannot keep, the spread of the
   values behind its totals. It observes each value as it becomes known:
   stores, checkpoint stores and stall cycles when the executor closes
   the region, commit latency and NVM lines when the proxy commits it.
   The instruments are standalone cells, so observing allocates nothing
   and touches no registry; {!publish} folds them into one.

   Every cell is touched from the observed session's own domain only
   (the simulator runs one session per domain). *)

module Counter = Metrics.Counter
module Histogram = Metrics.Histogram

type t = {
  enabled : bool;
  stores : Histogram.t;
  ckpt_stores : Histogram.t;
  stall_cycles : Histogram.t;
  commit_latency : Histogram.t;
  nvm_lines : Histogram.t;
  closed : Counter.t;
  committed : Counter.t;
}

let make enabled =
  {
    enabled;
    stores = Histogram.log2 ~buckets:14;
    ckpt_stores = Histogram.log2 ~buckets:14;
    stall_cycles = Histogram.log2 ~buckets:18;
    commit_latency = Histogram.log2 ~buckets:18;
    nvm_lines = Histogram.log2 ~buckets:14;
    closed = Counter.make ();
    committed = Counter.make ();
  }

let create () = make true
let null = make false
let enabled t = t.enabled

let on_close t ~stores ~ckpt_stores ~stall_cycles =
  if t.enabled then begin
    Counter.inc t.closed;
    Histogram.observe t.stores stores;
    Histogram.observe t.ckpt_stores ckpt_stores;
    Histogram.observe t.stall_cycles stall_cycles
  end

let on_commit t ~latency ~nvm_lines =
  if t.enabled then begin
    Counter.inc t.committed;
    Histogram.observe t.commit_latency latency;
    Histogram.observe t.nvm_lines nvm_lines
  end

let publish ?(labels = []) t m =
  let histogram name buckets h =
    Histogram.merge_into ~dst:(Metrics.log2_histogram ~labels m name ~buckets) h
  in
  histogram "region_stores" 14 t.stores;
  histogram "region_ckpt_stores" 14 t.ckpt_stores;
  histogram "region_stall_cycles" 18 t.stall_cycles;
  histogram "region_commit_latency" 18 t.commit_latency;
  histogram "region_nvm_lines" 14 t.nvm_lines;
  Counter.add (Metrics.counter ~labels m "regions_closed") (Counter.value t.closed);
  Counter.add
    (Metrics.counter ~labels m "regions_committed")
    (Counter.value t.committed)
