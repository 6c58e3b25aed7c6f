open Capri_ir
module Arch = Capri_arch
module Runtime = Capri_runtime

type t = {
  shards : int;
  cores : int;
  key_space : int;
  capacity : int;
  batch : int;
  requests : Wire.request array array;
  preload : (int * int) array array;
  txns : Wire.txn array;
  program : Program.t;
  mailboxes : int array;
  tables : int array;
  items : int array;
  ctrl : int;
  txn_stride : int;
  sched : Sched.cfg option;
  descs : int;
  deques : int;
  globals : int;
}

(* Oracle-sensitivity knob: when set, the emitted participant path skips
   the spin on the coordinator's decision record and treats its own vote
   as the decision — a shard that voted yes then applies its items even
   when the transaction globally aborts. The fuzz campaign's
   serializability oracle must catch this. *)
let fault_skip_decision = Atomic.make false

let r = Reg.of_int
let rg i = Builder.reg (r i)
let im = Builder.imm

(* Register convention for the request handler (shared between the
   pinned [shard] entry and the scheduled [worker] entry):
     r0 = mailbox cursor   r1 = remaining requests
     r2 = table base       r3 = capacity
   and, when the store carries transactions:
     r14 = 2PC ctrl base   r15 = 1 + shard (vote-word offset)
     r16 = item-area cursor
   Scratch: r4..r13 (r12 is the batch countdown) plus r17..r23 on the
   transaction path. The work-stealing worker additionally owns
     r24 = own deque base  r25 = core id      r26 = victim scan
     r27 = quantum left    r28 = slice seq    r29 = shard id
     r30 = descriptor addr
   none of which the handler body touches. *)

(* Open-addressing probe; keys are never removed (deletion leaves the
   key with a -1 value sentinel), so with capacity > distinct keys the
   scan always terminates at the key or an empty slot. The caller leaves
   its block open with r8 = key mod capacity; this closes it with a jump
   into the probe loop, which exits with r9 = slot address, r10 = slot
   key at [found] (key present) or [empty] (r10 = 0). *)
let emit_probe f ~prefix ~found ~empty =
  let probe = Builder.block f (prefix ^ "probe") in
  let chk = Builder.block f (prefix ^ "chk") in
  let nxt = Builder.block f (prefix ^ "next") in
  Builder.jump f probe;
  Builder.switch f probe;
  Builder.mul f (r 9) (rg 8) (im 2);
  Builder.add f (r 9) (rg 9) (rg 2);
  Builder.load f (r 10) ~base:(r 9) ~off:0 ();
  Builder.binop f Instr.Eq (r 13) (rg 10) (rg 5);
  Builder.branch f (rg 13) found chk;
  Builder.switch f chk;
  Builder.binop f Instr.Eq (r 13) (rg 10) (im 0);
  Builder.branch f (rg 13) empty nxt;
  Builder.switch f nxt;
  Builder.add f (r 8) (rg 8) (im 1);
  Builder.binop f Instr.Rem (r 8) (rg 8) (rg 3);
  Builder.jump f probe

(* The request-dispatch body, parameterized over its scheduling skin:
   [entry] runs in the still-open entry block and must terminate it
   (typically into [reqloop]); [wait ~decide] fills the tail of the
   participant's post-vote block — the pinned handler spins on the
   decision word, the scheduled worker checks it once and parks the
   task; [finish ~reqloop] fills the per-request [check_done] block
   (advance emitted, r1 already decremented). Returns the transaction
   path's [decide] block so a scheduled worker can re-enter it when a
   parked participant's decision lands. *)
let emit_handler f ~batch ~txn ~entry ~wait ~finish =
  let decide_out = ref None in
  let reqloop = Builder.block f "reqloop" in
  let probe = Builder.block f "probe" in
  let check_empty = Builder.block f "check_empty" in
  let probe_next = Builder.block f "probe_next" in
  let found = Builder.block f "found" in
  let d_put = Builder.block f "d_put" in
  let d_del = Builder.block f "d_del" in
  let f_get = Builder.block f "f_get" in
  let g_hit = Builder.block f "g_hit" in
  let f_put = Builder.block f "f_put" in
  let f_del = Builder.block f "f_del" in
  let del_do = Builder.block f "del_do" in
  let f_cas = Builder.block f "f_cas" in
  let cas_live = Builder.block f "cas_live" in
  let cas_win = Builder.block f "cas_win" in
  let cas_fail = Builder.block f "cas_fail" in
  let empty = Builder.block f "empty" in
  let e_put = Builder.block f "e_put" in
  let resp_miss = Builder.block f "resp_miss" in
  let next_req = Builder.block f "next_req" in
  let do_fence = Builder.block f "do_fence" in
  let check_done = Builder.block f "check_done" in
  entry ~reqloop;
  (* fetch the next request from the mailbox *)
  Builder.switch f reqloop;
  Builder.load f (r 4) ~base:(r 0) ~off:0 ();
  Builder.load f (r 5) ~base:(r 0) ~off:1 ();
  Builder.load f (r 6) ~base:(r 0) ~off:2 ();
  Builder.load f (r 7) ~base:(r 0) ~off:3 ();
  (match txn with
  | None ->
    Builder.binop f Instr.Rem (r 8) (rg 5) (rg 3);
    Builder.jump f probe
  | Some stride ->
    let single = Builder.block f "single" in
    let t_begin = Builder.block f "t_begin" in
    let vloop = Builder.block f "vloop" in
    let vitem = Builder.block f "vitem" in
    let vcas = Builder.block f "vcas" in
    let vfound = Builder.block f "vfound" in
    let vlive = Builder.block f "vlive" in
    let vno = Builder.block f "vno" in
    let vnext = Builder.block f "vnext" in
    let vdone = Builder.block f "vdone" in
    let decide = Builder.block f "decide" in
    decide_out := Some decide;
    let t_apply = Builder.block f "t_apply" in
    let aloop = Builder.block f "aloop" in
    let aitem = Builder.block f "aitem" in
    let afound = Builder.block f "afound" in
    let ag = Builder.block f "ag" in
    let ahit = Builder.block f "ahit" in
    let aset = Builder.block f "aset" in
    let aempty = Builder.block f "aempty" in
    let ains = Builder.block f "ains" in
    let amiss = Builder.block f "amiss" in
    let anext = Builder.block f "anext" in
    let t_abort = Builder.block f "t_abort" in
    let t_adv = Builder.block f "t_adv" in
    Builder.binop f Instr.Eq (r 13) (rg 4) (im (Wire.op_code Wire.Txn));
    Builder.branch f (rg 13) t_begin single;
    Builder.switch f single;
    Builder.binop f Instr.Rem (r 8) (rg 5) (rg 3);
    Builder.jump f probe;
    (* ---- transaction marker: prepare (vote) phase ---- *)
    Builder.switch f t_begin;
    Builder.mv f (r 23) (r 5);  (* tid *)
    Builder.mv f (r 19) (r 6);  (* local item count *)
    Builder.sub f (r 17) (rg 5) (im 1);
    Builder.mul f (r 17) (rg 17) (im stride);
    Builder.add f (r 17) (rg 17) (rg 14);  (* ctrl block of this txn *)
    Builder.li f (r 20) 1;  (* vote yes until a cas item disagrees *)
    Builder.mv f (r 18) (r 16);
    Builder.jump f vloop;
    Builder.switch f vloop;
    Builder.binop f Instr.Eq (r 13) (rg 19) (im 0);
    Builder.branch f (rg 13) vdone vitem;
    Builder.switch f vitem;
    Builder.load f (r 4) ~base:(r 18) ~off:0 ();
    Builder.load f (r 5) ~base:(r 18) ~off:1 ();
    Builder.load f (r 7) ~base:(r 18) ~off:3 ();
    Builder.binop f Instr.Eq (r 13) (rg 4) (im (Wire.op_code Wire.Cas));
    Builder.branch f (rg 13) vcas vnext;
    Builder.switch f vcas;
    Builder.binop f Instr.Rem (r 8) (rg 5) (rg 3);
    emit_probe f ~prefix:"v" ~found:vfound ~empty:vno;
    Builder.switch f vfound;
    Builder.load f (r 11) ~base:(r 9) ~off:1 ();
    Builder.binop f Instr.Eq (r 13) (rg 11) (im (-1));
    Builder.branch f (rg 13) vno vlive;
    Builder.switch f vlive;
    Builder.binop f Instr.Eq (r 13) (rg 11) (rg 7);
    Builder.branch f (rg 13) vnext vno;
    Builder.switch f vno;
    Builder.li f (r 20) 2;  (* vote no *)
    Builder.jump f vnext;
    Builder.switch f vnext;
    Builder.add f (r 18) (rg 18) (im 4);
    Builder.sub f (r 19) (rg 19) (im 1);
    Builder.jump f vloop;
    (* vote record: own word of the ctrl block, sealed in its own
       region by the fence before the decision wait *)
    Builder.switch f vdone;
    Builder.add f (r 13) (rg 17) (rg 15);
    Builder.store f ~base:(r 13) ~off:0 (rg 20);
    Builder.fence f;
    if Atomic.get fault_skip_decision then begin
      (* injected bug: take our own vote for the global decision *)
      Builder.mv f (r 22) (r 20);
      Builder.jump f decide
    end
    else wait ~decide;
    Builder.switch f decide;
    Builder.binop f Instr.Eq (r 13) (rg 22) (im 1);
    Builder.branch f (rg 13) t_apply t_abort;
    (* ---- commit: apply items in order, one response each ---- *)
    Builder.switch f t_apply;
    Builder.load f (r 19) ~base:(r 0) ~off:2 ();  (* reload item count *)
    Builder.mv f (r 18) (r 16);
    Builder.jump f aloop;
    Builder.switch f aloop;
    Builder.binop f Instr.Eq (r 13) (rg 19) (im 0);
    Builder.branch f (rg 13) t_adv aitem;
    Builder.switch f aitem;
    Builder.load f (r 4) ~base:(r 18) ~off:0 ();
    Builder.load f (r 5) ~base:(r 18) ~off:1 ();
    Builder.load f (r 6) ~base:(r 18) ~off:2 ();
    Builder.binop f Instr.Rem (r 8) (rg 5) (rg 3);
    emit_probe f ~prefix:"a" ~found:afound ~empty:aempty;
    Builder.switch f afound;
    Builder.load f (r 11) ~base:(r 9) ~off:1 ();
    Builder.binop f Instr.Eq (r 13) (rg 4) (im (Wire.op_code Wire.Get));
    Builder.branch f (rg 13) ag aset;
    Builder.switch f ag;
    Builder.binop f Instr.Eq (r 13) (rg 11) (im (-1));
    Builder.branch f (rg 13) amiss ahit;
    Builder.switch f ahit;
    Builder.out f (rg 11);
    Builder.jump f anext;
    Builder.switch f aset;
    (* put or prepare-validated cas: store unconditionally *)
    Builder.store f ~base:(r 9) ~off:1 (rg 6);
    Builder.out f (rg 6);
    Builder.jump f anext;
    Builder.switch f aempty;
    Builder.binop f Instr.Eq (r 13) (rg 4) (im (Wire.op_code Wire.Get));
    Builder.branch f (rg 13) amiss ains;
    Builder.switch f ains;
    (* value before key, as on the single-op path *)
    Builder.store f ~base:(r 9) ~off:1 (rg 6);
    Builder.store f ~base:(r 9) ~off:0 (rg 5);
    Builder.out f (rg 6);
    Builder.jump f anext;
    Builder.switch f amiss;
    Builder.out f (im Wire.response_miss);
    Builder.jump f anext;
    Builder.switch f anext;
    Builder.add f (r 18) (rg 18) (im 4);
    Builder.sub f (r 19) (rg 19) (im 1);
    Builder.jump f aloop;
    (* ---- abort: one response carrying the tid ---- *)
    Builder.switch f t_abort;
    Builder.add f (r 13) (rg 23)
      (im (Wire.response ~status:Wire.Aborted ~payload:0));
    Builder.out f (rg 13);
    Builder.jump f t_adv;
    (* skip this txn's item area and rejoin the request loop *)
    Builder.switch f t_adv;
    Builder.load f (r 13) ~base:(r 0) ~off:2 ();
    Builder.mul f (r 13) (rg 13) (im Wire.words_per_request);
    Builder.add f (r 16) (rg 16) (rg 13);
    Builder.jump f next_req);
  (* open-addressing probe of the single-op path *)
  Builder.switch f probe;
  Builder.mul f (r 9) (rg 8) (im 2);
  Builder.add f (r 9) (rg 9) (rg 2);
  Builder.load f (r 10) ~base:(r 9) ~off:0 ();
  Builder.binop f Instr.Eq (r 13) (rg 10) (rg 5);
  Builder.branch f (rg 13) found check_empty;
  Builder.switch f check_empty;
  Builder.binop f Instr.Eq (r 13) (rg 10) (im 0);
  Builder.branch f (rg 13) empty probe_next;
  Builder.switch f probe_next;
  Builder.add f (r 8) (rg 8) (im 1);
  Builder.binop f Instr.Rem (r 8) (rg 8) (rg 3);
  Builder.jump f probe;
  (* key present: dispatch on op *)
  Builder.switch f found;
  Builder.load f (r 11) ~base:(r 9) ~off:1 ();
  Builder.binop f Instr.Eq (r 13) (rg 4) (im (Wire.op_code Wire.Get));
  Builder.branch f (rg 13) f_get d_put;
  Builder.switch f d_put;
  Builder.binop f Instr.Eq (r 13) (rg 4) (im (Wire.op_code Wire.Put));
  Builder.branch f (rg 13) f_put d_del;
  Builder.switch f d_del;
  Builder.binop f Instr.Eq (r 13) (rg 4) (im (Wire.op_code Wire.Delete));
  Builder.branch f (rg 13) f_del f_cas;
  Builder.switch f f_get;
  Builder.binop f Instr.Eq (r 13) (rg 11) (im (-1));
  Builder.branch f (rg 13) resp_miss g_hit;
  Builder.switch f g_hit;
  Builder.out f (rg 11);
  Builder.jump f next_req;
  Builder.switch f f_put;
  Builder.store f ~base:(r 9) ~off:1 (rg 6);
  Builder.out f (rg 6);
  Builder.jump f next_req;
  Builder.switch f f_del;
  Builder.binop f Instr.Eq (r 13) (rg 11) (im (-1));
  Builder.branch f (rg 13) resp_miss del_do;
  Builder.switch f del_do;
  Builder.store f ~base:(r 9) ~off:1 (im (-1));
  Builder.out f (im 0);
  Builder.jump f next_req;
  Builder.switch f f_cas;
  Builder.binop f Instr.Eq (r 13) (rg 11) (im (-1));
  Builder.branch f (rg 13) resp_miss cas_live;
  Builder.switch f cas_live;
  Builder.binop f Instr.Eq (r 13) (rg 11) (rg 7);
  Builder.branch f (rg 13) cas_win cas_fail;
  Builder.switch f cas_win;
  Builder.store f ~base:(r 9) ~off:1 (rg 6);
  Builder.out f (rg 6);
  Builder.jump f next_req;
  Builder.switch f cas_fail;
  Builder.add f (r 13) (rg 11)
    (im (Wire.response ~status:Wire.Cas_fail ~payload:0));
  Builder.out f (rg 13);
  Builder.jump f next_req;
  (* key absent: only Put creates it *)
  Builder.switch f empty;
  Builder.binop f Instr.Eq (r 13) (rg 4) (im (Wire.op_code Wire.Put));
  Builder.branch f (rg 13) e_put resp_miss;
  Builder.switch f e_put;
  (* value before key: regions commit in order, so a crash can never
     leave a key visible with an unwritten value word *)
  Builder.store f ~base:(r 9) ~off:1 (rg 6);
  Builder.store f ~base:(r 9) ~off:0 (rg 5);
  Builder.out f (rg 6);
  Builder.jump f next_req;
  Builder.switch f resp_miss;
  Builder.out f (im Wire.response_miss);
  Builder.jump f next_req;
  (* advance; fence closes the region every [batch] requests *)
  Builder.switch f next_req;
  Builder.add f (r 0) (rg 0) (im Wire.words_per_request);
  Builder.sub f (r 1) (rg 1) (im 1);
  Builder.add f (r 12) (rg 12) (im 1);
  Builder.binop f Instr.Eq (r 13) (rg 12) (im batch);
  Builder.branch f (rg 13) do_fence check_done;
  Builder.switch f do_fence;
  Builder.fence f;
  Builder.li f (r 12) 0;
  Builder.jump f check_done;
  Builder.switch f check_done;
  finish ~reqloop;
  !decide_out

(* The pinned per-shard entry: one core per shard, requests drained to
   exhaustion, the participant spins on the coordinator's decision. *)
let emit_shard b ~batch ~txn =
  let f = Builder.func b "shard" in
  let fin = ref None in
  ignore @@ emit_handler f ~batch ~txn
    ~entry:(fun ~reqloop ->
      let dn = Builder.block f "done" in
      fin := Some dn;
      Builder.li f (r 12) 0;
      Builder.binop f Instr.Lt (r 13) (im 0) (rg 1);
      Builder.branch f (rg 13) reqloop dn)
    ~wait:(fun ~decide ->
      let spin = Builder.block f "spin" in
      Builder.jump f spin;
      Builder.switch f spin;
      Builder.load f (r 22) ~base:(r 17) ~off:0 ();
      Builder.binop f Instr.Eq (r 13) (rg 22) (im 0);
      Builder.branch f (rg 13) spin decide)
    ~finish:(fun ~reqloop ->
      let dn = Option.get !fin in
      Builder.binop f Instr.Lt (r 13) (im 0) (rg 1);
      Builder.branch f (rg 13) reqloop dn;
      Builder.switch f dn;
      Builder.halt f)

(* The work-stealing worker: shard descriptors multiplexed over
   [sched.cores] cores via per-core deques (see Sched for the layout
   and the commit-ordering argument). Each deque operation is a short
   lock-word critical section: the lock is taken with an Atomic_rmw
   (which seals the acquirer's region at the instruction) and released
   with a plain store sealed by a fence, so a later acquirer's RMW
   store-conflicts against the previous holder's uncommitted release —
   a successful acquire therefore orders after the commit of the
   holder's whole critical section and, FIFO per core, after
   everything the holder did before it. A stolen task's descriptor
   writeback and slice outputs are thus durable before the thief can
   observe the task, which keeps per-shard ack cycles monotone across
   a migration and 2PC vote records durable before a stolen
   participant's marker can resume. *)
let emit_worker b ~batch ~txn ~sched ~shards ~capacity ~ctrl ~deques ~globals =
  let scfg : Sched.cfg = sched in
  let ncores = scfg.Sched.cores in
  let qcap = max 1 shards in
  let dq_words = Sched.deque_words ~shards in
  let f = Builder.func b "worker" in
  let mainloop = Builder.block f "mainloop" in
  let tryown = Builder.block f "tryown" in
  let own_locked = Builder.block f "own_locked" in
  let own_pop = Builder.block f "own_pop" in
  let own_empty = Builder.block f "own_empty" in
  let do_steal = scfg.Sched.steal && ncores > 1 in
  let stealloop = if do_steal then Some (Builder.block f "stealloop") else None in
  let trysteal = if do_steal then Some (Builder.block f "trysteal") else None in
  let st_retry = if do_steal then Some (Builder.block f "st_retry") else None in
  let st_rmw = if do_steal then Some (Builder.block f "st_rmw") else None in
  let st_locked = if do_steal then Some (Builder.block f "st_locked") else None in
  let st_empty = if do_steal then Some (Builder.block f "st_empty") else None in
  let st_take = if do_steal then Some (Builder.block f "st_take") else None in
  let runtask = Builder.block f "runtask" in
  let slicestart = Builder.block f "slicestart" in
  let qcheck = Builder.block f "qcheck" in
  let slice_end = Builder.block f "slice_end" in
  let writeback = Builder.block f "writeback" in
  let push_enter = Builder.block f "push_enter" in
  let push_locked = Builder.block f "push_locked" in
  let task_done = Builder.block f "task_done" in
  let fin = Builder.block f "fin" in
  let park = if txn <> None then Some (Builder.block f "park") else None in
  let pollwait =
    if txn <> None then Some (Builder.block f "pollwait") else None
  in
  let resume = if txn <> None then Some (Builder.block f "resume") else None in
  let repush_check =
    if txn <> None && do_steal then Some (Builder.block f "repush_check")
    else None
  in
  let repush_enter =
    if txn <> None && do_steal then Some (Builder.block f "repush_enter")
    else None
  in
  let repush_locked =
    if txn <> None && do_steal then Some (Builder.block f "repush_locked")
    else None
  in
  let the = Option.get in
  let reqloop_ref = ref None in
  (* One slice header per slice: announce shard + seq so the host can
     demultiplex this core's interleaved output stream. *)
  let emit_header () =
    Builder.add f (r 4) (rg 29) (im Wire.slice_status_base);
    Builder.mul f (r 4) (rg 4) (im Wire.payload_limit);
    Builder.add f (r 4) (rg 4) (rg 28);
    Builder.out f (rg 4);
    Builder.add f (r 28) (rg 28) (im 1);
    Builder.li f (r 27) scfg.Sched.quantum;
    Builder.li f (r 12) 0
  in
  let decide_opt =
    emit_handler f ~batch ~txn
      ~entry:(fun ~reqloop ->
        reqloop_ref := Some reqloop;
        Builder.li f (r 3) capacity;
        if txn <> None then Builder.li f (r 14) ctrl;
        Builder.jump f mainloop)
      ~wait:(fun ~decide ->
        (* check the decision once; park the task if it is still open
           so this core can serve other shards meanwhile *)
        Builder.load f (r 22) ~base:(r 17) ~off:0 ();
        Builder.binop f Instr.Eq (r 13) (rg 22) (im 0);
        Builder.branch f (rg 13) (the park) decide)
      ~finish:(fun ~reqloop ->
      Builder.binop f Instr.Lt (r 13) (im 0) (rg 1);
      Builder.branch f (rg 13) qcheck task_done;
      Builder.switch f qcheck;
      Builder.sub f (r 27) (rg 27) (im 1);
      Builder.binop f Instr.Eq (r 13) (rg 27) (im 0);
      Builder.branch f (rg 13) slice_end reqloop)
  in
  (* ---- scheduler loop ---- *)
  Builder.switch f mainloop;
  Builder.li f (r 4) globals;
  Builder.load f (r 5) ~base:(r 4) ~off:Sched.global_remaining ();
  Builder.binop f Instr.Eq (r 13) (rg 5) (im 0);
  Builder.branch f (rg 13) fin tryown;
  (* try-lock the own deque; on contention just retry from the top *)
  Builder.switch f tryown;
  Builder.atomic_rmw f Instr.Or (r 6) ~base:(r 24) ~off:Sched.deque_lock (im 1);
  Builder.binop f Instr.Eq (r 13) (rg 6) (im 0);
  Builder.branch f (rg 13) own_locked mainloop;
  Builder.switch f own_locked;
  Builder.load f (r 7) ~base:(r 24) ~off:Sched.deque_top ();
  Builder.load f (r 8) ~base:(r 24) ~off:Sched.deque_bottom ();
  Builder.binop f Instr.Eq (r 13) (rg 7) (rg 8);
  Builder.branch f (rg 13) own_empty own_pop;
  (* owner pops oldest-first: round-robin over the shards parked here *)
  Builder.switch f own_pop;
  Builder.binop f Instr.Rem (r 9) (rg 7) (im qcap);
  Builder.add f (r 9) (rg 9) (rg 24);
  Builder.load f (r 30) ~base:(r 9) ~off:Sched.deque_ring ();
  Builder.add f (r 7) (rg 7) (im 1);
  Builder.store f ~base:(r 24) ~off:Sched.deque_top (rg 7);
  Builder.store f ~base:(r 24) ~off:Sched.deque_lock (im 0);
  Builder.fence f;
  if do_steal then Builder.li f (r 20) 0;
  Builder.jump f runtask;
  Builder.switch f own_empty;
  Builder.store f ~base:(r 24) ~off:Sched.deque_lock (im 0);
  Builder.fence f;
  if do_steal then begin
    Builder.mv f (r 26) (r 25);
    Builder.jump f (the stealloop);
    (* scan the other cores' deques round-robin from our own id *)
    Builder.switch f (the stealloop);
    Builder.add f (r 26) (rg 26) (im 1);
    Builder.binop f Instr.Rem (r 26) (rg 26) (im ncores);
    Builder.binop f Instr.Eq (r 13) (rg 26) (rg 25);
    Builder.branch f (rg 13) mainloop (the trysteal);
    Builder.switch f (the trysteal);
    Builder.li f (r 8) deques;
    Builder.mul f (r 9) (rg 26) (im dq_words);
    Builder.add f (r 8) (rg 8) (rg 9);
    (* lock-free peek first: an idle scan over empty deques must not
       take their locks — the acquire RMWs would conflict with the
       victims' own push/pop critical sections and tax exactly the
       cores that are busy. A torn peek is harmless: non-empty is
       rechecked under the lock, empty is resampled next pass. *)
    Builder.load f (r 7) ~base:(r 8) ~off:Sched.deque_top ();
    Builder.load f (r 9) ~base:(r 8) ~off:Sched.deque_bottom ();
    Builder.binop f Instr.Eq (r 13) (rg 7) (rg 9);
    Builder.branch f (rg 13) (the stealloop) (the st_retry);
    (* A busy victim lock is waited out, not skipped: a pass through the
       scan loop is long enough that a deterministic interleaving can
       phase-lock the thief into forever missing the free window between
       a victim's release and its next acquire. The wait spins on a
       plain LOAD — loads are not conflict-checked and write nothing, so
       the holder's release store always lands — and only attempts the
       acquire RMW once the word reads free. (Spinning on the RMW itself
       would livelock: each failed attempt parks an uncommitted entry on
       the lock word that blocks the holder's release store.) The
       two-instruction load loop re-arms faster than the victim's path
       from release back to its next acquire, so the thief wins that
       race; an empty deque still advances the scan through st_empty, so
       the loop only tightens on a lock that is about to be released. *)
    Builder.switch f (the st_retry);
    Builder.load f (r 6) ~base:(r 8) ~off:Sched.deque_lock ();
    Builder.binop f Instr.Eq (r 13) (rg 6) (im 0);
    Builder.branch f (rg 13) (the st_rmw) (the st_retry);
    Builder.switch f (the st_rmw);
    Builder.atomic_rmw f Instr.Or (r 6) ~base:(r 8) ~off:Sched.deque_lock
      (im 1);
    Builder.binop f Instr.Eq (r 13) (rg 6) (im 0);
    Builder.branch f (rg 13) (the st_locked) (the st_retry);
    Builder.switch f (the st_locked);
    Builder.load f (r 7) ~base:(r 8) ~off:Sched.deque_top ();
    Builder.load f (r 9) ~base:(r 8) ~off:Sched.deque_bottom ();
    Builder.binop f Instr.Eq (r 13) (rg 7) (rg 9);
    Builder.branch f (rg 13) (the st_empty) (the st_take);
    Builder.switch f (the st_empty);
    Builder.store f ~base:(r 8) ~off:Sched.deque_lock (im 0);
    Builder.fence f;
    Builder.jump f (the stealloop);
    (* steal the newest entry — the victim's hottest shard *)
    Builder.switch f (the st_take);
    Builder.sub f (r 9) (rg 9) (im 1);
    Builder.binop f Instr.Rem (r 10) (rg 9) (im qcap);
    Builder.add f (r 10) (rg 10) (rg 8);
    Builder.load f (r 30) ~base:(r 10) ~off:Sched.deque_ring ();
    Builder.store f ~base:(r 8) ~off:Sched.deque_bottom (rg 9);
    Builder.store f ~base:(r 8) ~off:Sched.deque_lock (im 0);
    Builder.fence f;
    (* per-core steal counter: single-writer, read from the final
       NVM image by the host *)
    Builder.li f (r 4) (globals + Sched.global_steal ~core:0);
    Builder.add f (r 4) (rg 4) (rg 25);
    Builder.load f (r 5) ~base:(r 4) ~off:0 ();
    Builder.add f (r 5) (rg 5) (im 1);
    Builder.store f ~base:(r 4) ~off:0 (rg 5);
    Builder.li f (r 20) 1;
    Builder.jump f runtask
  end
  else Builder.jump f mainloop;
  (* resume the task's continuation from its descriptor *)
  Builder.switch f runtask;
  Builder.load f (r 0) ~base:(r 30) ~off:Sched.desc_cursor ();
  Builder.load f (r 1) ~base:(r 30) ~off:Sched.desc_remaining ();
  Builder.load f (r 2) ~base:(r 30) ~off:Sched.desc_table ();
  Builder.load f (r 28) ~base:(r 30) ~off:Sched.desc_seq ();
  Builder.load f (r 29) ~base:(r 30) ~off:Sched.desc_shard ();
  if txn <> None then begin
    Builder.load f (r 16) ~base:(r 30) ~off:Sched.desc_items ();
    Builder.add f (r 15) (rg 29) (im 1);
    Builder.load f (r 4) ~base:(r 30) ~off:Sched.desc_phase ();
    Builder.binop f Instr.Eq (r 13) (rg 4) (im 0);
    Builder.branch f (rg 13) slicestart (the pollwait)
  end
  else Builder.jump f slicestart;
  Builder.switch f slicestart;
  emit_header ();
  Builder.jump f (Option.get !reqloop_ref);
  (match txn with
  | None -> ()
  | Some stride ->
    (* a parked participant: the cursor still points at its txn
       marker; poll the decision and either resume past the wait or
       re-enqueue the task untouched (no header — no slice ran) *)
    Builder.switch f (the pollwait);
    Builder.load f (r 17) ~base:(r 0) ~off:1 ();
    Builder.sub f (r 17) (rg 17) (im 1);
    Builder.mul f (r 17) (rg 17) (im stride);
    Builder.add f (r 17) (rg 17) (rg 14);
    Builder.load f (r 22) ~base:(r 17) ~off:0 ();
    Builder.binop f Instr.Eq (r 13) (rg 22) (im 0);
    Builder.branch f (rg 13)
      (if do_steal then the repush_check else push_enter)
      (the resume);
    (* still undecided: re-enqueue untouched. A task popped from the own
       deque additionally triggers a steal scan before coming back — a
       core whose own tasks are all parked must not spin on them while
       other cores starve. A freshly STOLEN task that is still parked is
       re-enqueued plainly instead (r20 flag): letting it rescan would
       let two cores trade each other's parked tasks forever without
       ever popping their own ready work. *)
    if do_steal then begin
      Builder.switch f (the repush_check);
      Builder.binop f Instr.Eq (r 13) (rg 20) (im 0);
      Builder.branch f (rg 13) (the repush_enter) push_enter;
      Builder.switch f (the repush_enter);
      Builder.atomic_rmw f Instr.Or (r 6) ~base:(r 24) ~off:Sched.deque_lock
        (im 1);
      Builder.binop f Instr.Eq (r 13) (rg 6) (im 0);
      Builder.branch f (rg 13) (the repush_locked) (the repush_enter);
      Builder.switch f (the repush_locked);
      Builder.load f (r 8) ~base:(r 24) ~off:Sched.deque_bottom ();
      Builder.binop f Instr.Rem (r 9) (rg 8) (im qcap);
      Builder.add f (r 9) (rg 9) (rg 24);
      Builder.store f ~base:(r 9) ~off:Sched.deque_ring (rg 30);
      Builder.add f (r 8) (rg 8) (im 1);
      Builder.store f ~base:(r 24) ~off:Sched.deque_bottom (rg 8);
      Builder.store f ~base:(r 24) ~off:Sched.deque_lock (im 0);
      Builder.fence f;
      Builder.mv f (r 26) (r 25);
      Builder.jump f (the stealloop)
    end;
    Builder.switch f (the resume);
    emit_header ();
    Builder.load f (r 23) ~base:(r 0) ~off:1 ();
    Builder.jump f (the decide_opt);
    (* park: record the wait phase, write the continuation back and
       re-enqueue; the resumed run re-enters at pollwait *)
    Builder.switch f (the park);
    Builder.store f ~base:(r 30) ~off:Sched.desc_phase (im 1);
    Builder.jump f writeback);
  (* quantum expired with work left: back to ready and re-enqueue *)
  Builder.switch f slice_end;
  Builder.store f ~base:(r 30) ~off:Sched.desc_phase (im 0);
  Builder.jump f writeback;
  Builder.switch f writeback;
  Builder.store f ~base:(r 30) ~off:Sched.desc_cursor (rg 0);
  Builder.store f ~base:(r 30) ~off:Sched.desc_remaining (rg 1);
  if txn <> None then
    Builder.store f ~base:(r 30) ~off:Sched.desc_items (rg 16);
  Builder.store f ~base:(r 30) ~off:Sched.desc_seq (rg 28);
  Builder.jump f push_enter;
  (* push to the own deque; this acquire must succeed eventually, and
     does: every holder's critical section is short and commits *)
  Builder.switch f push_enter;
  Builder.atomic_rmw f Instr.Or (r 6) ~base:(r 24) ~off:Sched.deque_lock (im 1);
  Builder.binop f Instr.Eq (r 13) (rg 6) (im 0);
  Builder.branch f (rg 13) push_locked push_enter;
  Builder.switch f push_locked;
  Builder.load f (r 8) ~base:(r 24) ~off:Sched.deque_bottom ();
  Builder.binop f Instr.Rem (r 9) (rg 8) (im qcap);
  Builder.add f (r 9) (rg 9) (rg 24);
  Builder.store f ~base:(r 9) ~off:Sched.deque_ring (rg 30);
  Builder.add f (r 8) (rg 8) (im 1);
  Builder.store f ~base:(r 24) ~off:Sched.deque_bottom (rg 8);
  Builder.store f ~base:(r 24) ~off:Sched.deque_lock (im 0);
  Builder.fence f;
  Builder.jump f mainloop;
  (* shard drained: write the final continuation back (for post-mortem
     probes) and retire the task; the RMW seals the slice's tail *)
  Builder.switch f task_done;
  Builder.store f ~base:(r 30) ~off:Sched.desc_cursor (rg 0);
  Builder.store f ~base:(r 30) ~off:Sched.desc_remaining (rg 1);
  Builder.store f ~base:(r 30) ~off:Sched.desc_seq (rg 28);
  Builder.li f (r 4) globals;
  Builder.atomic_rmw f Instr.Add (r 5) ~base:(r 4) ~off:Sched.global_remaining
    (im (-1));
  Builder.fence f;
  Builder.jump f mainloop;
  Builder.switch f fin;
  Builder.halt f

(* The 2PC coordinator, one core for the whole store: for each txn in
   tid order, spin until every vote word of its ctrl block is nonzero
   (non-participants are pre-initialized to yes), decide commit iff all
   are yes, store the decision word, ack the outcome, and fence so the
   decision record and its acknowledgement commit atomically. *)
let emit_coord b ~shards ~stride =
  let f = Builder.func b "coord" in
  let cloop = Builder.block f "cloop" in
  let ctxn = Builder.block f "ctxn" in
  let cscan = Builder.block f "cscan" in
  let crd = Builder.block f "crd" in
  let cvote = Builder.block f "cvote" in
  let cdecide = Builder.block f "cdecide" in
  let cfin = Builder.block f "cfin" in
  (* entry: r1 = txn count, r2 = ctrl base; r4 = txn index *)
  Builder.li f (r 4) 0;
  Builder.jump f cloop;
  Builder.switch f cloop;
  Builder.binop f Instr.Lt (r 13) (rg 4) (rg 1);
  Builder.branch f (rg 13) ctxn cfin;
  Builder.switch f ctxn;
  Builder.mul f (r 5) (rg 4) (im stride);
  Builder.add f (r 5) (rg 5) (rg 2);
  Builder.li f (r 6) 1;
  Builder.li f (r 7) 1;
  Builder.jump f cscan;
  Builder.switch f cscan;
  Builder.binop f Instr.Le (r 13) (rg 7) (im shards);
  Builder.branch f (rg 13) crd cdecide;
  Builder.switch f crd;
  Builder.add f (r 8) (rg 5) (rg 7);
  Builder.load f (r 9) ~base:(r 8) ~off:0 ();
  Builder.binop f Instr.Eq (r 13) (rg 9) (im 0);
  Builder.branch f (rg 13) crd cvote;
  Builder.switch f cvote;
  Builder.binop f Instr.Ne (r 13) (rg 9) (im 2);
  Builder.binop f Instr.And (r 6) (rg 6) (rg 13);
  Builder.add f (r 7) (rg 7) (im 1);
  Builder.jump f cscan;
  Builder.switch f cdecide;
  Builder.sub f (r 8) (im 2) (rg 6);  (* 1 = commit, 2 = abort *)
  Builder.store f ~base:(r 5) ~off:0 (rg 8);
  Builder.add f (r 9) (rg 8) (im 2);  (* Committed = 3, Aborted = 4 *)
  Builder.mul f (r 9) (rg 9) (im Wire.payload_limit);
  Builder.add f (r 9) (rg 9) (rg 4);
  Builder.add f (r 9) (rg 9) (im 1);
  Builder.out f (rg 9);
  Builder.fence f;
  Builder.add f (r 4) (rg 4) (im 1);
  Builder.jump f cloop;
  Builder.switch f cfin;
  Builder.halt f

let capacity_for key_space = max 8 (2 * key_space)

(* Every shard's table must fit the heap beside the others; checking
   that first keeps an oversized request from allocating gigabytes of
   pairs that [build]'s own heap check would only reject afterwards. *)
let synthetic_preload ~shards ~keys =
  let heap = Capri_runtime.Layout.heap_words in
  if shards < 1 then invalid_arg "Kvstore.synthetic_preload: no shards";
  if keys <= 0 then [||]
  else if 2 * capacity_for (min keys heap) > heap / shards then
    invalid_arg
      (Printf.sprintf "%d keys per shard over %d shards exceed the %d-word heap"
         keys shards heap)
  else
    Array.init shards (fun s ->
        Array.init keys (fun i ->
            let key = i + 1 in
            (key, (key + (s * 17)) mod 251)))

let check_preload ~shards ~key_space preload =
  let n = Array.length preload in
  if n <> 0 && n <> shards then
    invalid_arg "Kvstore.build: preload must have one entry per shard";
  Array.iter
    (fun pairs ->
      Array.iter
        (fun (key, value) ->
          if key < 1 || key > key_space then
            invalid_arg "Kvstore.build: preload key out of key space";
          if value < 0 || value >= Wire.payload_limit then
            invalid_arg "Kvstore.build: preload value out of payload range")
        pairs)
    preload

(* Host-side bulk fill of one shard table: replay the emitted probe
   discipline (slot = key mod capacity, advance by one while another key
   occupies the slot, overwrite in place when the key is found) over the
   preload pairs in array order. By construction the resulting words are
   exactly what the op-by-op [Put] path would leave behind, so a
   preloaded store is indistinguishable from one that served the same
   puts — validated by test_service's loader-equivalence test. *)
let fill_table ~capacity pairs =
  let words = Array.make (capacity * 2) 0 in
  Array.iter
    (fun (key, value) ->
      let rec go slot steps =
        if steps >= capacity then
          invalid_arg "Kvstore.build: preload overflows table capacity"
        else
          let k = words.(slot * 2) in
          if k = key || k = 0 then begin
            words.(slot * 2) <- key;
            words.((slot * 2) + 1) <- value
          end
          else go ((slot + 1) mod capacity) (steps + 1)
      in
      go (key mod capacity) 0)
    pairs;
  words

(* Empty shards get a plain (zeroed, per-word) allocation; preloaded
   shards go through the blob path so a million-key table costs one
   array in the program, not millions of data-list cells. *)
let alloc_tables b ~capacity preload =
  Array.map
    (fun pairs ->
      if Array.length pairs = 0 then Builder.alloc b ~words:(capacity * 2)
      else Builder.alloc_blob b (fill_table ~capacity pairs))
    preload

let round_line n = (n + 7) / 8 * 8
let stride_for ~shards = round_line (1 + shards)

let cores_for ?sched ~shards ~txns () =
  (match sched with None -> shards | Some s -> s.Sched.cores)
  + if txns > 0 then 1 else 0

let local_counts ~shards (t : Wire.txn) =
  let local = Array.make shards 0 in
  Array.iter (fun (s, _) -> local.(s) <- local.(s) + 1) t.items;
  local

let check_txns ~shards ~requests ~txns =
  Array.iteri
    (fun i (t : Wire.txn) ->
      if t.tid <> i + 1 then
        invalid_arg "Kvstore: txn ids must be 1..n in array order";
      Wire.check_txn ~shards t)
    txns;
  let expect = Array.map (local_counts ~shards) txns in
  Array.iteri
    (fun s reqs ->
      let last = ref 0 in
      let seen = Array.make (Array.length txns) false in
      Array.iter
        (fun (req : Wire.request) ->
          if req.op = Wire.Txn then begin
            let tid = req.key in
            if tid > Array.length txns then
              invalid_arg "Kvstore: marker for an unknown txn";
            if tid <= !last then
              invalid_arg "Kvstore: txn markers out of tid order";
            if expect.(tid - 1).(s) = 0 then
              invalid_arg "Kvstore: marker on a non-participant shard";
            if req.value <> expect.(tid - 1).(s) then
              invalid_arg "Kvstore: marker item count mismatch";
            seen.(tid - 1) <- true;
            last := tid
          end)
        reqs;
      Array.iteri
        (fun ti local ->
          if local.(s) > 0 && not seen.(ti) then
            invalid_arg "Kvstore: participant shard missing its txn marker")
        expect)
    requests

let alloc_mailboxes b requests =
  Array.map
    (fun reqs ->
      let words =
        Array.concat (Array.to_list (Array.map Wire.encode_request reqs))
      in
      (* a shard with no admitted requests still owns a (zeroed) box *)
      let words = if Array.length words = 0 then [| 0 |] else words in
      Builder.alloc_init b words)
    requests

let alloc_ctrl b ~shards ~stride txns =
  let ntxn = Array.length txns in
  if ntxn = 0 then 0
  else begin
    let base = Builder.alloc b ~words:(ntxn * stride) in
    (* non-participant vote words start at yes so the coordinator
       needs no participant mask; decision words start at 0 *)
    Array.iteri
      (fun ti t ->
        let local = local_counts ~shards t in
        Array.iteri
          (fun s c ->
            if c = 0 then
              Builder.init_word b ~addr:(base + (ti * stride) + 1 + s) 1)
          local)
      txns;
    base
  end

let alloc_items b ~shards txns =
  if Array.length txns = 0 then Array.make shards 0
  else
    Array.init shards (fun s ->
        let words =
          Array.concat
            (List.concat_map
               (fun (t : Wire.txn) ->
                 List.filter_map
                   (fun (shard, item) ->
                     if shard = s then Some (Wire.encode_request item)
                     else None)
                   (Array.to_list t.items))
               (Array.to_list txns))
        in
        let words = if Array.length words = 0 then [| 0 |] else words in
        Builder.alloc_init b words)

let build ?(batch = 8) ?(txns = [||]) ?sched ?(preload = [||]) ~key_space
    ~requests () =
  let shards = Array.length requests in
  if shards = 0 then invalid_arg "Kvstore.build: no shards";
  if key_space < 1 then invalid_arg "Kvstore.build: key_space must be positive";
  if batch < 1 then invalid_arg "Kvstore.build: batch must be positive";
  let ntxn = Array.length txns in
  Array.iter (fun reqs -> Array.iter Wire.check_request reqs) requests;
  check_txns ~shards ~requests ~txns;
  check_preload ~shards ~key_space preload;
  let preload =
    if Array.length preload = 0 then Array.make shards [||] else preload
  in
  let capacity = capacity_for key_space in
  let stride = stride_for ~shards in
  let txn = if ntxn = 0 then None else Some stride in
  Option.iter Sched.check sched;
  let cores = cores_for ?sched ~shards ~txns:ntxn () in
  Capri_runtime.Layout.check_cores cores;
  match sched with
  | None ->
    let b = Builder.create () in
    emit_shard b ~batch ~txn;
    if ntxn > 0 then emit_coord b ~shards ~stride;
    let mailboxes = alloc_mailboxes b requests in
    let tables = alloc_tables b ~capacity preload in
    let ctrl = alloc_ctrl b ~shards ~stride txns in
    let items = alloc_items b ~shards txns in
    Capri_runtime.Layout.check_heap ~words:(Builder.extent b);
    let program = Builder.finish b ~main:"shard" in
    {
      shards;
      cores;
      key_space;
      capacity;
      batch;
      requests;
      preload;
      txns;
      program;
      mailboxes;
      tables;
      items;
      ctrl;
      txn_stride = stride;
      sched = None;
      descs = 0;
      deques = 0;
      globals = 0;
    }
  | Some scfg ->
    let ncores = scfg.Sched.cores in
    let b = Builder.create () in
    (* the worker code bakes area bases in as immediates, so all
       allocation happens before emission in scheduled stores *)
    let mailboxes = alloc_mailboxes b requests in
    let tables = alloc_tables b ~capacity preload in
    let ctrl = alloc_ctrl b ~shards ~stride txns in
    let items = alloc_items b ~shards txns in
    let descs = Builder.alloc b ~words:(shards * Sched.desc_words) in
    Array.iteri
      (fun s reqs ->
        let d = descs + (s * Sched.desc_words) in
        Builder.init_word b ~addr:(d + Sched.desc_cursor) mailboxes.(s);
        Builder.init_word b ~addr:(d + Sched.desc_remaining)
          (Array.length reqs);
        Builder.init_word b ~addr:(d + Sched.desc_table) tables.(s);
        Builder.init_word b ~addr:(d + Sched.desc_items) items.(s);
        Builder.init_word b ~addr:(d + Sched.desc_shard) s)
      requests;
    let dq_words = Sched.deque_words ~shards in
    let deques = Builder.alloc b ~words:(ncores * dq_words) in
    (* each non-empty shard starts on its home core [s mod ncores] —
       static pinning folded over the available cores; stealing then
       rebalances at runtime *)
    let bottoms = Array.make ncores 0 in
    Array.iteri
      (fun s reqs ->
        if Array.length reqs > 0 then begin
          let c = s mod ncores in
          let dq = deques + (c * dq_words) in
          Builder.init_word b
            ~addr:(dq + Sched.deque_ring + bottoms.(c))
            (descs + (s * Sched.desc_words));
          bottoms.(c) <- bottoms.(c) + 1
        end)
      requests;
    Array.iteri
      (fun c n ->
        if n > 0 then
          Builder.init_word b
            ~addr:(deques + (c * dq_words) + Sched.deque_bottom)
            n)
      bottoms;
    let live = Array.fold_left (fun acc n -> acc + n) 0 bottoms in
    let globals = Builder.alloc b ~words:(Sched.globals_words ~cores:ncores) in
    if live > 0 then
      Builder.init_word b ~addr:(globals + Sched.global_remaining) live;
    emit_worker b ~batch ~txn ~sched:scfg ~shards ~capacity ~ctrl ~deques
      ~globals;
    if ntxn > 0 then emit_coord b ~shards ~stride;
    Capri_runtime.Layout.check_heap ~words:(Builder.extent b);
    let program = Builder.finish b ~main:"worker" in
    {
      shards;
      cores;
      key_space;
      capacity;
      batch;
      requests;
      preload;
      txns;
      program;
      mailboxes;
      tables;
      items;
      ctrl;
      txn_stride = stride;
      sched = Some scfg;
      descs;
      deques;
      globals;
    }

let workers t =
  match t.sched with
  | None -> t.shards
  | Some scfg -> scfg.Sched.cores

let thread_specs t =
  let ntxn = Array.length t.txns in
  let coord_thread =
    if ntxn = 0 then []
    else
      [ { Runtime.Executor.func = "coord"; args = [ (r 1, ntxn); (r 2, t.ctrl) ] } ]
  in
  match t.sched with
  | None ->
    List.init t.shards (fun s ->
        {
          Runtime.Executor.func = "shard";
          args =
            [
              (r 0, t.mailboxes.(s));
              (r 1, Array.length t.requests.(s));
              (r 2, t.tables.(s));
              (r 3, t.capacity);
            ]
            @ (if ntxn = 0 then []
               else [ (r 14, t.ctrl); (r 15, 1 + s); (r 16, t.items.(s)) ]);
        })
    @ coord_thread
  | Some scfg ->
    let dq_words = Sched.deque_words ~shards:t.shards in
    List.init scfg.Sched.cores (fun c ->
        {
          Runtime.Executor.func = "worker";
          args = [ (r 24, t.deques + (c * dq_words)); (r 25, c) ];
        })
    @ coord_thread

let lookup t mem ~shard ~key =
  let table = t.tables.(shard) in
  let cap = t.capacity in
  let rec go slot steps =
    if steps >= cap then None
    else
      let k = Arch.Memory.read mem (table + (slot * 2)) in
      if k = key then
        let v = Arch.Memory.read mem (table + (slot * 2) + 1) in
        if v = -1 then None else Some v
      else if k = 0 then None
      else go ((slot + 1) mod cap) (steps + 1)
  in
  go (key mod cap) 0

let ctrl_decision t mem ~tid =
  Arch.Memory.read mem (t.ctrl + ((tid - 1) * t.txn_stride))

let ctrl_vote t mem ~tid ~shard =
  Arch.Memory.read mem (t.ctrl + ((tid - 1) * t.txn_stride) + 1 + shard)

let steal_count t mem ~core =
  match t.sched with
  | None -> 0
  | Some _ -> Arch.Memory.read mem (t.globals + Sched.global_steal ~core)

let steal_total t mem =
  match t.sched with
  | None -> 0
  | Some scfg ->
    let total = ref 0 in
    for c = 0 to scfg.Sched.cores - 1 do
      total := !total + steal_count t mem ~core:c
    done;
    !total
