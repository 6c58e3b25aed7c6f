type t = {
  threshold : int;
  ckpt : bool;
  unroll : bool;
  prune : bool;
  licm : bool;
  unroll_max : int;
  unroll_code_growth : int;
  absorb_loops : bool;
  prune_region_limit : int;
}

let default =
  {
    threshold = 256;
    ckpt = true;
    unroll = true;
    prune = true;
    licm = true;
    unroll_max = 8;
    unroll_code_growth = 512;
    absorb_loops = true;
    prune_region_limit = 64;
  }

let with_threshold threshold t = { t with threshold }

let region_only = { default with ckpt = false; unroll = false;
                    prune = false; licm = false }

let up_to_ckpt = { region_only with ckpt = true }
let up_to_unroll = { up_to_ckpt with unroll = true }
let up_to_prune = { up_to_unroll with prune = true }
let all_opts = default

let fig9_configs =
  [ ("region", region_only); ("+ckpt", up_to_ckpt);
    ("+unrolling", up_to_unroll); ("+pruning", up_to_prune);
    ("+licm", all_opts) ]

let fig8_thresholds = [ 32; 64; 128; 256; 512; 1024 ]

let pp fmt t =
  Format.fprintf fmt
    "{threshold=%d; ckpt=%b; unroll=%b; prune=%b; licm=%b; absorb=%b}"
    t.threshold t.ckpt t.unroll t.prune t.licm t.absorb_loops
