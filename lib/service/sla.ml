module Arch = Capri_arch
module Stat = Capri_util.Stat

module Model = struct
  type t = { values : int array }  (* index by key; -1 = absent *)

  let create ~key_space = { values = Array.make (key_space + 1) (-1) }
  let copy t = { values = Array.copy t.values }

  (* Bulk-loaded pairs are already-committed state: the model starts
     from them, exactly as the recovered NVM table does. *)
  let seed t pairs = Array.iter (fun (key, value) -> t.values.(key) <- value) pairs
  let get t key = if t.values.(key) = -1 then None else Some t.values.(key)

  let apply t (r : Wire.request) =
    let v = t.values.(r.key) in
    match r.op with
    | Wire.Get ->
      if v = -1 then Wire.response_miss
      else Wire.response ~status:Wire.Ok ~payload:v
    | Wire.Put ->
      t.values.(r.key) <- r.value;
      Wire.response ~status:Wire.Ok ~payload:r.value
    | Wire.Delete ->
      if v = -1 then Wire.response_miss
      else begin
        t.values.(r.key) <- -1;
        Wire.response ~status:Wire.Ok ~payload:0
      end
    | Wire.Cas ->
      if v = -1 then Wire.response_miss
      else if v = r.expected then begin
        t.values.(r.key) <- r.value;
        Wire.response ~status:Wire.Ok ~payload:r.value
      end
      else Wire.response ~status:Wire.Cas_fail ~payload:v
    | Wire.Txn -> invalid_arg "Sla.Model.apply: txn markers expand via replay"

  (* Commit-time application of a txn item: cas was validated at
     prepare, so put and cas both store unconditionally; get reads the
     current state (read-your-writes within the transaction). *)
  let apply_item t (r : Wire.request) =
    match r.op with
    | Wire.Get ->
      if t.values.(r.key) = -1 then Wire.response_miss
      else Wire.response ~status:Wire.Ok ~payload:t.values.(r.key)
    | Wire.Put | Wire.Cas ->
      t.values.(r.key) <- r.value;
      Wire.response ~status:Wire.Ok ~payload:r.value
    | Wire.Delete | Wire.Txn -> invalid_arg "Sla.Model.apply_item"
end

let expected_responses ~key_space reqs =
  let m = Model.create ~key_space in
  Array.map (fun r -> Model.apply m r) reqs

(* ------------------- protocol replay ------------------- *)

(* The serializability oracle's reference: a deterministic host-side
   replay of the whole 2PC protocol. Each shard's stream is expanded
   into micro-operations — singles as-is, every txn marker into either
   its local items (commit) or one abort acknowledgement — processed in
   stream order, with transactions resolved in tid order: votes are
   computed against each participant's pre-transaction state, the
   decision is the conjunction, and the serial application order is the
   tid order. Because markers appear in tid order in every stream and
   shards own disjoint tables, this replay is the unique serializable
   outcome the machine can produce; its per-core response streams and
   per-prefix table states are what crash images and the completed run
   are checked against. *)

type micro = M_single of Wire.request | M_item of Wire.request | M_abort of int

type resp_meta = { kind : string; tid : int; key : int }

type protocol = {
  expected : int array array;  (* per core; coordinator last when txns *)
  meta : resp_meta array array;  (* aligned with [expected] *)
  micro : micro array array;  (* per shard *)
  votes : int array array;  (* per txn, per shard: 1 yes / 2 no *)
  decisions : bool array;  (* per txn: committed? *)
  marker_at : int array array;
      (* per txn, per shard: micro index where the marker's expansion
         begins, -1 for non-participants *)
}

let local_items (t : Wire.txn) s =
  List.filter_map
    (fun (shard, item) -> if shard = s then Some item else None)
    (Array.to_list t.items)

let participants (t : Wire.txn) =
  List.sort_uniq compare (List.map fst (Array.to_list t.items))

(* Op-kind classification for the latency-by-kind breakdown. Must look
   at the model BEFORE the request applies: a Put lands as "insert" on
   an absent key and "update" on a present one. Everything touched by
   the 2PC path — items, abort acknowledgements, coordinator outcomes —
   is "txn". *)
let kind_of_single m (r : Wire.request) =
  match r.op with
  | Wire.Get -> "read"
  | Wire.Put -> if Model.get m r.key = None then "insert" else "update"
  | Wire.Delete | Wire.Cas -> "update"
  | Wire.Txn -> invalid_arg "Sla.kind_of_single: txn marker"

let replay (kv : Kvstore.t) =
  let shards = kv.shards in
  let txns = kv.txns in
  let ntxn = Array.length txns in
  let models =
    Array.init shards (fun s ->
        let m = Model.create ~key_space:kv.key_space in
        Model.seed m kv.preload.(s);
        m)
  in
  let micro = Array.make shards [] in  (* reversed *)
  let resp = Array.make shards [] in  (* reversed *)
  let metas = Array.make shards [] in  (* reversed, aligned with resp *)
  let cursor = Array.make shards 0 in
  let coord = ref [] in
  let coord_meta = ref [] in
  let votes = Array.init ntxn (fun _ -> Array.make shards 0) in
  let decisions = Array.make ntxn false in
  let marker_at = Array.init ntxn (fun _ -> Array.make shards (-1)) in
  let count = Array.make shards 0 in  (* micro count per shard *)
  let push s m meta w =
    micro.(s) <- m :: micro.(s);
    resp.(s) <- w :: resp.(s);
    metas.(s) <- meta :: metas.(s);
    count.(s) <- count.(s) + 1
  in
  let advance_singles s =
    let reqs = kv.requests.(s) in
    while
      cursor.(s) < Array.length reqs && reqs.(cursor.(s)).Wire.op <> Wire.Txn
    do
      let r = reqs.(cursor.(s)) in
      let meta = { kind = kind_of_single models.(s) r; tid = -1; key = r.key } in
      push s (M_single r) meta (Model.apply models.(s) r);
      cursor.(s) <- cursor.(s) + 1
    done
  in
  Array.iteri
    (fun ti (t : Wire.txn) ->
      let parts = participants t in
      List.iter
        (fun s ->
          advance_singles s;
          assert (
            cursor.(s) < Array.length kv.requests.(s)
            && kv.requests.(s).(cursor.(s)).Wire.key = t.tid))
        parts;
      (* votes against the pre-transaction state of each shard *)
      List.iter
        (fun s ->
          let ok =
            List.for_all
              (fun (item : Wire.request) ->
                item.op <> Wire.Cas
                || Model.get models.(s) item.key = Some item.expected)
              (local_items t s)
          in
          votes.(ti).(s) <- (if ok then 1 else 2))
        parts;
      let decision = List.for_all (fun s -> votes.(ti).(s) = 1) parts in
      decisions.(ti) <- decision;
      List.iter
        (fun s ->
          cursor.(s) <- cursor.(s) + 1;
          marker_at.(ti).(s) <- count.(s);
          if decision then
            List.iter
              (fun (item : Wire.request) ->
                let meta = { kind = "txn"; tid = t.tid; key = item.key } in
                push s (M_item item) meta (Model.apply_item models.(s) item))
              (local_items t s)
          else
            push s (M_abort t.tid)
              { kind = "txn"; tid = t.tid; key = -1 }
              (Wire.response ~status:Wire.Aborted ~payload:t.tid))
        parts;
      coord :=
        Wire.response
          ~status:(if decision then Wire.Committed else Wire.Aborted)
          ~payload:t.tid
        :: !coord;
      coord_meta := { kind = "txn"; tid = t.tid; key = -1 } :: !coord_meta)
    txns;
  for s = 0 to shards - 1 do
    advance_singles s;
    assert (cursor.(s) = Array.length kv.requests.(s))
  done;
  let shard_expected =
    Array.map (fun l -> Array.of_list (List.rev l)) resp
  in
  let shard_meta = Array.map (fun l -> Array.of_list (List.rev l)) metas in
  let expected =
    if ntxn = 0 then shard_expected
    else
      Array.append shard_expected
        [| Array.of_list (List.rev !coord) |]
  in
  let meta =
    if ntxn = 0 then shard_meta
    else
      Array.append shard_meta [| Array.of_list (List.rev !coord_meta) |]
  in
  {
    expected;
    meta;
    micro = Array.map (fun l -> Array.of_list (List.rev l)) micro;
    votes;
    decisions;
    marker_at;
  }

let expected_streams p = p.expected
let response_meta p = p.meta
let decisions p = p.decisions

(* Physical-to-logical stream normalization. A pinned store's cores ARE
   its shards, so streams pass through untouched. A scheduled store's
   worker cores interleave slices of many shards; the slice headers let
   the demux reassemble per-shard views (headers stripped), which is
   exactly the shape [replay] predicts. The coordinator stream, when
   present, carries no headers and is appended as the last logical
   stream. Demux errors are protocol violations in their own right —
   a lost, duplicated or reordered slice is a broken migration. *)
let normalize ~kv ~word streams =
  match kv.Kvstore.sched with
  | None -> (streams, [])
  | Some _ ->
    let nw = Kvstore.workers kv in
    let views, errs =
      Sched.views ~word ~shards:kv.Kvstore.shards (Array.sub streams 0 nw)
    in
    let all =
      if Array.length kv.Kvstore.txns = 0 then views
      else Array.append views [| streams.(nw) |]
    in
    (all, errs)

(* Tenant attribution of one expected response: singles and txn items
   carry their key, whose namespace names the owner; txn outcomes and
   abort acknowledgements belong to the tenant that issued the
   transaction. Keys outside every namespace (e.g. a shared hot key)
   and stores without tenancy attribute to tenant 0. *)
let tenant_of ~tenants ~space ~txn_tenant meta =
  if tenants <= 1 then 0
  else if meta.tid >= 1 && meta.tid <= Array.length txn_tenant then
    txn_tenant.(meta.tid - 1)
  else if meta.key >= 1 && meta.key <= tenants * space then
    Wire.tenant_of_key ~space meta.key
  else 0

let txn_outcomes p =
  Array.fold_left
    (fun (c, a) d -> if d then (c + 1, a) else (c, a + 1))
    (0, 0) p.decisions

(* Shard state after the first [m] micro-operations. Starts from the
   preload — [state_after _ _ ~shard 0] is the bulk-loaded table. *)
let state_after kv p ~shard m =
  let model = Model.create ~key_space:kv.Kvstore.key_space in
  Model.seed model kv.Kvstore.preload.(shard);
  let ops = p.micro.(shard) in
  for i = 0 to m - 1 do
    match ops.(i) with
    | M_single r -> ignore (Model.apply model r)
    | M_item r -> ignore (Model.apply_item model r)
    | M_abort _ -> ()
  done;
  model

(* How far the durable table may run ahead of the acked count: a
   micro-op's store can sit in a committed region while its response is
   still staged in the open one (a threshold or fence boundary between
   them), but never by more than the ops bracketing that open region. *)
let durable_slack = 2

type violation = { shard : int; crash_index : int; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "core %d%s: %s" v.shard
    (if v.crash_index < 0 then " (completion)"
     else Printf.sprintf " (crash %d)" v.crash_index)
    v.detail

let prefix_mismatch expected got =
  (* Returns the first index where [got] stops being a prefix of
     [expected], or None. *)
  let rec go i = function
    | [] -> None
    | g :: rest ->
      if i >= Array.length expected then Some i
      else if expected.(i) <> g then Some i
      else go (i + 1) rest
  in
  go 0 got

let table_matches kv nvm ~shard model =
  let ok = ref true in
  for key = 1 to kv.Kvstore.key_space do
    if !ok && Kvstore.lookup kv nvm ~shard ~key <> Model.get model key then
      ok := false
  done;
  !ok

(* Durable 2PC record invariants against one crash image: vote and
   decision words are written exactly once with deterministic values, so
   in NVM they are either still 0 or the replay's value — and once a
   core acked past the point that sealed them, 0 is no longer allowed. *)
let marker_passed ~p ~ti ~s ~n =
  (* the first response of a marker's expansion comes after the vote
     fence, so acking it implies the vote record's region committed *)
  let at = p.marker_at.(ti).(s) in
  at >= 0 && n > at

let check_records ~kv ~p ~crash_index (image : Arch.Persist.image) ~acked_n =
  let shards = kv.Kvstore.shards in
  let ntxn = Array.length kv.Kvstore.txns in
  let err shard detail = Some { shard; crash_index; detail } in
  let nvm = image.Arch.Persist.nvm in
  let rec txn ti =
    if ti >= ntxn then None
    else begin
      let tid = ti + 1 in
      let d = Kvstore.ctrl_decision kv nvm ~tid in
      let want = if p.decisions.(ti) then 1 else 2 in
      if d <> 0 && d <> want then
        err shards
          (Printf.sprintf
             "durable decision word of txn %d is %d, protocol decides %d" tid d
             want)
      else if acked_n.(shards) > ti && d <> want then
        err shards
          (Printf.sprintf
             "coordinator acked txn %d but its decision record is not durable"
             tid)
      else begin
        let rec shard s =
          if s >= shards then None
          else begin
            let v = Kvstore.ctrl_vote kv nvm ~tid ~shard:s in
            let computed = p.votes.(ti).(s) in
            if computed = 0 then
              (* non-participant: the initial image says yes *)
              if v <> 1 then
                err s
                  (Printf.sprintf
                     "non-participant vote word of txn %d is %d (expected the \
                      pre-initialized yes)"
                     tid v)
              else shard (s + 1)
            else if v <> 0 && v <> computed then
              err s
                (Printf.sprintf
                   "durable vote word of txn %d is %d, protocol votes %d" tid v
                   computed)
            else if
              marker_passed ~p ~ti ~s ~n:acked_n.(s) && v <> computed
            then
              err s
                (Printf.sprintf
                   "shard acked past txn %d's marker but its vote record is \
                    not durable"
                   tid)
            else shard (s + 1)
          end
        in
        match shard 0 with None -> txn (ti + 1) | some -> some
      end
    end
  in
  txn 0

let check_crash ~kv ~p ~crash_index (image : Arch.Persist.image) =
  let shards = kv.Kvstore.shards in
  let err shard detail = Error { shard; crash_index; detail } in
  let streams, demux_errs =
    normalize ~kv ~word:fst image.Arch.Persist.acked
  in
  if demux_errs <> [] then
    err shards ("acked stream demux: " ^ List.hd demux_errs)
  else begin
  let nstreams = Array.length p.expected in
  let acked_n = Array.make nstreams 0 in
  let rec per_core core =
    if core >= nstreams then Ok ()
    else
      let acked = List.map fst streams.(core) in
      let exp : int array = p.expected.(core) in
      let n = List.length acked in
      acked_n.(core) <- n;
      match prefix_mismatch exp acked with
      | Some i when i >= Array.length exp ->
        err core
          (Printf.sprintf "acked %d responses but only %d are expected" n
             (Array.length exp))
      | Some i ->
        err core
          (Printf.sprintf
             "acked response %d is %d but the protocol answers %d (duplicate, \
              lost, reordered or corrupt ack)"
             i (List.nth acked i) exp.(i))
      | None ->
        if core >= shards then per_core (core + 1)
        else begin
          (* scan the slack window for a durable table match *)
          let hi = min (n + durable_slack) (Array.length p.micro.(core)) in
          let rec scan k =
            if
              table_matches kv image.Arch.Persist.nvm ~shard:core
                (state_after kv p ~shard:core k)
            then true
            else if k >= hi then false
            else scan (k + 1)
          in
          if scan n then per_core (core + 1)
          else
            err core
              (Printf.sprintf
                 "durable table matches no protocol state in [%d..%d] — an \
                  acked effect is missing, a torn write survived recovery, or \
                  a transaction half-applied"
                 n hi)
        end
  in
  match per_core 0 with
  | Error _ as e -> e
  | Ok () -> (
    if Array.length kv.Kvstore.txns = 0 then Ok ()
    else
      match check_records ~kv ~p ~crash_index image ~acked_n with
      | None -> Ok ()
      | Some v -> Error v)
  end

let check ~kv ~images ~final =
  let p = replay kv in
  let rec crashes i = function
    | [] -> Ok ()
    | image :: rest -> (
      match check_crash ~kv ~p ~crash_index:i image with
      | Error _ as e -> e
      | Ok () -> crashes (i + 1) rest)
  in
  match crashes 0 images with
  | Error _ as e -> e
  | Ok () ->
    let final_streams, demux_errs = normalize ~kv ~word:Fun.id final in
    if demux_errs <> [] then
      Error
        {
          shard = kv.Kvstore.shards;
          crash_index = -1;
          detail = "final stream demux: " ^ List.hd demux_errs;
        }
    else
    let rec completion core =
      if core >= Array.length p.expected then Ok ()
      else
        let exp = p.expected.(core) in
        let got = final_streams.(core) in
        if got <> Array.to_list exp then
          Error
            {
              shard = core;
              crash_index = -1;
              detail =
                Printf.sprintf
                  "completed run answered %d responses, protocol answers %d%s"
                  (List.length got) (Array.length exp)
                  (match prefix_mismatch exp got with
                  | Some i when i < Array.length exp ->
                    Printf.sprintf " (first divergence at response %d)" i
                  | _ -> "");
            }
        else completion (core + 1)
    in
    completion 0

type stats = {
  ops : int;
  rejected : int;
  cycles : int;
  throughput : float;
  p50 : float;
  p99 : float;
  recoveries : int;
  mean_recovery : float;
  availability : float;
  txn_commits : int;
  txn_aborts : int;
}

let request_latencies ~loop shard_acks =
  let prev = ref 0 in
  List.mapi
    (fun i (_, cycle) ->
      let l =
        match loop with
        | Client.Closed -> cycle - !prev
        | Client.Open { period } -> cycle - (i * period)
      in
      prev := cycle;
      max 1 l)
    shard_acks

(* Same latency accounting as [request_latencies], but keeping the
   request's service interval: [start] is where its service began
   (previous ack for a closed loop, nominal arrival for an open one,
   clamped so start <= ack), [ack] the cycle the response was
   acknowledged. The SLO layer buckets latency into time windows at the
   ack and classifies requests by overlap with unavailability
   windows. *)
let request_intervals ~loop shard_acks =
  let prev = ref 0 in
  List.mapi
    (fun i (_, cycle) ->
      let nominal =
        match loop with
        | Client.Closed -> !prev
        | Client.Open { period } -> i * period
      in
      let start = min nominal cycle in
      prev := cycle;
      (start, cycle, max 1 (cycle - nominal)))
    shard_acks

let latencies ~loop acks =
  Array.fold_left
    (fun acc shard_acks ->
      List.rev_append
        (List.rev_map float_of_int (request_latencies ~loop shard_acks))
        acc)
    [] acks

let stats ?(txns = (0, 0)) ~loop ~acks ~cycles ~rejected ~recoveries
    ~recovery_cycles () =
  let ops = Array.fold_left (fun a l -> a + List.length l) 0 acks in
  let lat = latencies ~loop acks in
  let pct p = if lat = [] then 0.0 else Stat.percentile p lat in
  let txn_commits, txn_aborts = txns in
  {
    ops;
    rejected;
    cycles;
    throughput =
      (if cycles = 0 then 0.0
       else 1000.0 *. float_of_int ops /. float_of_int cycles);
    p50 = pct 50.0;
    p99 = pct 99.0;
    recoveries;
    mean_recovery =
      (if recoveries = 0 then 0.0
       else float_of_int recovery_cycles /. float_of_int recoveries);
    availability =
      (if cycles = 0 then 1.0
       else
         1.0 -. (float_of_int recovery_cycles /. float_of_int cycles));
    txn_commits;
    txn_aborts;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d ops (%d rejected) in %d cycles: %.2f ops/kcycle, latency p50 %.0f \
     p99 %.0f, %d recoveries (mean %.0f cycles), availability %.3f%%"
    s.ops s.rejected s.cycles s.throughput s.p50 s.p99 s.recoveries
    s.mean_recovery
    (100.0 *. s.availability);
  if s.txn_commits + s.txn_aborts > 0 then
    Format.fprintf ppf ", %d txns committed / %d aborted" s.txn_commits
      s.txn_aborts
