module Rng = Capri_util.Rng

type mix = A | B | C

let mix_name = function A -> "A" | B -> "B" | C -> "C"

(* YCSB-inspired op fractions (get, put, delete, cas). Updates in the A/B
   mixes are mostly puts with a sliver of deletes and compare-and-swaps so
   every handler path sees traffic. *)
let fractions = function
  | A -> (0.50, 0.40, 0.05, 0.05)
  | B -> (0.95, 0.04, 0.005, 0.005)
  | C -> (1.0, 0.0, 0.0, 0.0)

type loop = Closed | Open of { period : int }

type cfg = {
  mix : mix;
  key_space : int;
  ops_per_shard : int;
  skew : float;
  loop : loop;
  seed : int;
  txns : int;
  txn_items : int;
}

let default =
  {
    mix = A;
    key_space = 64;
    ops_per_shard = 200;
    skew = 0.99;
    loop = Closed;
    seed = 1;
    txns = 0;
    txn_items = 2;
  }

type workload = { requests : Wire.request array array; txns : Wire.txn array }

let pick_op rng mix =
  let g, p, d, _c = fractions mix in
  let x = Rng.float rng 1.0 in
  if x < g then Wire.Get
  else if x < g +. p then Wire.Put
  else if x < g +. p +. d then Wire.Delete
  else Wire.Cas

let generate_shard rng cfg dist =
  (* The generator mirrors the store so compare-and-swaps are not all
     doomed: half the time [expected] is the key's true current value. *)
  let model = Array.make (cfg.key_space + 1) (-1) in
  Array.init cfg.ops_per_shard (fun _ ->
      let key = 1 + Rng.zipf rng dist in
      let op = pick_op rng cfg.mix in
      let value = Rng.int rng Wire.payload_limit in
      let expected =
        if model.(key) >= 0 && Rng.bool rng then model.(key)
        else Rng.int rng Wire.payload_limit
      in
      (match op with
      | Wire.Put -> model.(key) <- value
      | Wire.Delete -> model.(key) <- -1
      | Wire.Cas -> if model.(key) = expected then model.(key) <- value
      | Wire.Get | Wire.Txn -> ());
      { Wire.op; key; value; expected })

(* One transaction: 2..min(shards,3) participant shards (1 on a 1-shard
   store), each holding 1..txn_items get/put/cas items. Cas expectations
   are random words, which almost never match the pre-transaction state:
   a participant holding a Cas nearly always votes no, one without votes
   yes, so both decisions and mixed votes occur constantly under
   fuzzing. (The deterministic yes-vote-with-winning-Cas path is covered
   by scripted tests.) The protocol replay in Sla decides the real
   outcome. *)
let generate_txn rng cfg ~shards ~tid =
  let nparts =
    if shards = 1 then 1 else 2 + Rng.int rng (min shards 3 - 1)
  in
  let order = Array.init shards Fun.id in
  Rng.shuffle rng order;
  let parts = Array.sub order 0 nparts in
  Array.sort compare parts;
  let items = ref [] in
  Array.iter
    (fun shard ->
      let count = 1 + Rng.int rng (max 1 cfg.txn_items) in
      for _ = 1 to count do
        let key = 1 + Rng.int rng cfg.key_space in
        let value = Rng.int rng Wire.payload_limit in
        let roll = Rng.float rng 1.0 in
        let op =
          if roll < 0.3 then Wire.Get
          else if roll < 0.75 then Wire.Put
          else Wire.Cas
        in
        let expected = Rng.int rng Wire.payload_limit in
        items := (shard, { Wire.op; key; value; expected }) :: !items
      done)
    parts;
  { Wire.tid; items = Array.of_list (List.rev !items) }

(* Insert each participant's marker at a random point of its single-op
   stream. The protocol requires every stream to carry its markers in
   tid order (the coordinator resolves transactions in tid order), so
   the drawn insertion points are sorted per shard and assigned to the
   markers in tid order. *)
let weave_markers rng singles txns =
  let shards = Array.length singles in
  let marks = Array.make shards [] in
  Array.iter
    (fun (t : Wire.txn) ->
      let local = Array.make shards 0 in
      Array.iter (fun (shard, _) -> local.(shard) <- local.(shard) + 1) t.items;
      Array.iteri
        (fun shard count ->
          if count > 0 then
            let pos = Rng.int rng (Array.length singles.(shard) + 1) in
            let marker =
              { Wire.op = Wire.Txn; key = t.tid; value = count; expected = 0 }
            in
            marks.(shard) <- (pos, marker) :: marks.(shard))
        local)
    txns;
  Array.mapi
    (fun shard reqs ->
      let in_tid_order = List.rev marks.(shard) in
      let points = List.sort compare (List.map fst in_tid_order) in
      let ms = List.map2 (fun p (_, m) -> (p, m)) points in_tid_order in
      let out = ref [] in
      let rec emit i ms =
        match ms with
        | (pos, m) :: rest when pos <= i -> out := m :: !out; emit i rest
        | _ ->
          if i < Array.length reqs then begin
            out := reqs.(i) :: !out;
            emit (i + 1) ms
          end
          else assert (ms = [])
      in
      emit 0 ms;
      Array.of_list (List.rev !out))
    singles

let generate cfg ~shards =
  if shards < 1 then invalid_arg "Client.generate: shards must be positive";
  if cfg.ops_per_shard < 0 then
    invalid_arg "Client.generate: negative ops_per_shard";
  if cfg.txns < 0 then invalid_arg "Client.generate: negative txns";
  let dist = Rng.Zipf.create ~n:cfg.key_space ~skew:cfg.skew in
  let master = Rng.create cfg.seed in
  let singles =
    Array.init shards (fun _ ->
        let rng = Rng.split master in
        generate_shard rng cfg dist)
  in
  if cfg.txns = 0 then { requests = singles; txns = [||] }
  else begin
    (* the txn rng splits after the per-shard splits, so the single-op
       streams are byte-identical to the txns = 0 workload *)
    let trng = Rng.split master in
    let txns =
      Array.init cfg.txns (fun t ->
          generate_txn trng cfg ~shards ~tid:(t + 1))
    in
    { requests = weave_markers trng singles txns; txns }
  end

let arrival cfg ~index =
  match cfg.loop with Closed -> 0 | Open { period } -> index * period

(* ------------------------- multi-tenant workloads ------------------------- *)

type tenant = { weight : int; mix : mix; skew : float }

type tenant_workload = {
  base : workload;
  tenants : int;
  space : int;
  key_space : int;
  txn_tenant : int array;
  weights : int array;
}

(* Smooth weighted round-robin: each slot, every tenant gains its
   weight of credit and the richest (lowest index on ties) is charged
   the total and emits. Deterministic, and over any window of slots the
   per-tenant counts track the weight ratio — the fair-share reference
   the admission gate and the per-tenant stats are judged against. *)
let smooth_wrr weights n =
  let k = Array.length weights in
  let total = Array.fold_left ( + ) 0 weights in
  let current = Array.make k 0 in
  Array.init n (fun _ ->
      let best = ref 0 in
      for i = 0 to k - 1 do
        current.(i) <- current.(i) + weights.(i);
        if current.(i) > current.(!best) then best := i
      done;
      current.(!best) <- current.(!best) - total;
      !best)

(* Items grouped by ascending participant shard, preserving draw order
   within a shard (the order the machine and the replay apply them). *)
let group_items items =
  List.stable_sort (fun (a, _) (b, _) -> compare a b) items
  |> Array.of_list

let generate_tenants ?(hot_txns = 0) (cfg : cfg) ~tenants ~shards =
  if shards < 1 then
    invalid_arg "Client.generate_tenants: shards must be positive";
  let nt = Array.length tenants in
  if nt < 1 then invalid_arg "Client.generate_tenants: at least one tenant";
  Array.iter
    (fun t ->
      if t.weight < 1 then
        invalid_arg "Client.generate_tenants: weights must be positive")
    tenants;
  if cfg.key_space < 1 then
    invalid_arg "Client.generate_tenants: key space must be positive";
  if cfg.txns < 0 || hot_txns < 0 then
    invalid_arg "Client.generate_tenants: negative txns";
  let space = cfg.key_space in
  let hot_key = (nt * space) + 1 in
  let key_space = if hot_txns > 0 then hot_key else nt * space in
  let weights = Array.map (fun t -> t.weight) tenants in
  let master = Rng.create cfg.seed in
  (* Per-tenant generator state: own rng stream, own popularity curve
     over the tenant's private keys, own store mirror (so Cas singles
     are not all doomed, exactly as in [generate]). *)
  let per_tenant =
    Array.map
      (fun (t : tenant) ->
        let rng = Rng.split master in
        let dist = Rng.Zipf.create ~n:space ~skew:t.skew in
        let model = Array.make (space + 1) (-1) in
        (t, rng, dist, model))
      tenants
  in
  (* Tenants interleave by fair share into one arrival order; each op
     lands on the shard its global key hashes to, so a skew-heavy
     tenant piles onto few shards while uniform tenants spread — the
     imbalance work stealing exists to absorb. *)
  let total_ops = cfg.ops_per_shard * shards in
  let order = smooth_wrr weights total_ops in
  let streams = Array.make shards [] in  (* reversed *)
  Array.iter
    (fun ti ->
      let t, rng, dist, model = per_tenant.(ti) in
      let local = 1 + Rng.zipf rng dist in
      let op = pick_op rng t.mix in
      let value = Rng.int rng Wire.payload_limit in
      let expected =
        if model.(local) >= 0 && Rng.bool rng then model.(local)
        else Rng.int rng Wire.payload_limit
      in
      (match op with
      | Wire.Put -> model.(local) <- value
      | Wire.Delete -> model.(local) <- -1
      | Wire.Cas -> if model.(local) = expected then model.(local) <- value
      | Wire.Get | Wire.Txn -> ());
      let key = Wire.tenant_key ~space ~tenant:ti local in
      let s = key mod shards in
      streams.(s) <- { Wire.op; key; value; expected } :: streams.(s))
    order;
  let singles = Array.map (fun l -> Array.of_list (List.rev l)) streams in
  let ntxn = cfg.txns + hot_txns in
  if ntxn = 0 then
    {
      base = { requests = singles; txns = [||] };
      tenants = nt;
      space;
      key_space;
      txn_tenant = [||];
      weights;
    }
  else begin
    let trng = Rng.split master in
    let txn_tenant = Array.make ntxn 0 in
    let issuers = smooth_wrr weights ntxn in
    (* namespace transactions: 2+ keys inside the issuer's range, so
       participants are whatever shards those keys route to *)
    let ns =
      Array.init cfg.txns (fun i ->
          let ti = issuers.(i) in
          txn_tenant.(i) <- ti;
          let nkeys = 2 + Rng.int trng (max 1 cfg.txn_items) in
          let items = ref [] in
          for _ = 1 to nkeys do
            let local = 1 + Rng.int trng space in
            let key = Wire.tenant_key ~space ~tenant:ti local in
            let value = Rng.int trng Wire.payload_limit in
            let roll = Rng.float trng 1.0 in
            let op =
              if roll < 0.3 then Wire.Get
              else if roll < 0.75 then Wire.Put
              else Wire.Cas
            in
            let expected = Rng.int trng Wire.payload_limit in
            items :=
              (key mod shards, { Wire.op; key; value; expected }) :: !items
          done;
          { Wire.tid = i + 1; items = group_items (List.rev !items) })
    in
    (* Hot-key transactions: every tenant CASes one shared key outside
       all namespaces. Txn 1 seeds it with an unconditional Put (a
       put-only transaction always commits); later ones CAS it with the
       true current value 60% of the time and a random word otherwise,
       plus a Put in the issuer's own range to make the transaction
       multi-shard. Because only these transactions ever touch the hot
       key and transactions resolve in tid order, the generator mirrors
       the commit/abort sequence exactly. *)
    let hot_shard = hot_key mod shards in
    let hot_val = ref (-1) in
    let hot =
      Array.init hot_txns (fun i ->
          let tid = cfg.txns + i + 1 in
          let ti = issuers.(cfg.txns + i) in
          txn_tenant.(cfg.txns + i) <- ti;
          if i = 0 then begin
            let value = Rng.int trng Wire.payload_limit in
            hot_val := value;
            {
              Wire.tid;
              items =
                [|
                  ( hot_shard,
                    { Wire.op = Wire.Put; key = hot_key; value; expected = 0 }
                  );
                |];
            }
          end
          else begin
            let value = Rng.int trng Wire.payload_limit in
            let expected =
              if Rng.float trng 1.0 < 0.6 then !hot_val
              else Rng.int trng Wire.payload_limit
            in
            if expected = !hot_val then hot_val := value;
            let local = 1 + Rng.int trng space in
            let k2 = Wire.tenant_key ~space ~tenant:ti local in
            let items =
              [
                ( hot_shard,
                  { Wire.op = Wire.Cas; key = hot_key; value; expected } );
                ( k2 mod shards,
                  {
                    Wire.op = Wire.Put;
                    key = k2;
                    value = Rng.int trng Wire.payload_limit;
                    expected = 0;
                  } );
              ]
            in
            { Wire.tid; items = group_items items }
          end)
    in
    let txns = Array.append ns hot in
    {
      base = { requests = weave_markers trng singles txns; txns };
      tenants = nt;
      space;
      key_space;
      txn_tenant;
      weights;
    }
  end

let noisy_tenants ~tenants:nt ~skew =
  if nt < 2 then invalid_arg "Client.noisy_tenants: at least two tenants";
  Array.init nt (fun i ->
      if i = 0 then { weight = 1; mix = A; skew }
      else { weight = 1; mix = A; skew = 0.0 })
