(** Request/response encoding between the host-side serving harness and
    the IR shard handlers.

    Requests are staged in per-shard data-segment mailboxes,
    {!words_per_request} words each: [op; key; value; expected]. The
    handler answers every request with exactly one [Out] whose word packs
    a status and a payload as [status * 2^20 + payload]; under journaled
    I/O that output becomes client-visible only when its region commits
    at the back-end proxy — the acknowledgement point.

    Multi-key transactions ride the same mailboxes: a [Txn] {e marker}
    request ([op = Txn; key = tid; value = local item count]) appears in
    every participant shard's stream, in tid order, and the items
    themselves live in a separate per-shard item area laid out by
    {!Kvstore}. A committed marker answers one response per local item;
    an aborted marker answers a single [Aborted] response carrying the
    tid. The 2PC coordinator answers one [Committed]/[Aborted] response
    per transaction, in tid order. *)

type op = Get | Put | Delete | Cas | Txn

type request = { op : op; key : int; value : int; expected : int }
(** [key >= 1] (0 marks an empty table slot); [value]/[expected] in
    [\[0, payload_limit)]. [expected] only matters for [Cas]. For a
    [Txn] marker, [key] is the tid (>= 1), [value] the number of the
    transaction's items local to this shard (>= 1) and [expected] must
    be 0. *)

val op_code : op -> int

val words_per_request : int

val payload_limit : int
(** Exclusive upper bound on values carried in a response (2^20). *)

val check_request : request -> unit
(** Raises [Invalid_argument] on out-of-range fields. *)

val encode_request : request -> int array
(** The {!words_per_request} mailbox words. *)

type txn = { tid : int; items : (int * request) array }
(** A multi-key transaction: [(shard, item)] pairs applied in array
    order on commit. Item ops are [Get]/[Put]/[Cas] only; [Cas] items
    are validated at prepare against the pre-transaction state and
    applied unconditionally on commit. *)

val check_txn : shards:int -> txn -> unit
(** Raises [Invalid_argument] on a bad tid, an empty item list, an item
    shard out of range, a [Delete]/[Txn] item, or an out-of-range item
    request. *)

type status = Ok | Miss | Cas_fail | Committed | Aborted

val response : status:status -> payload:int -> int
val response_miss : int
val decode_response : int -> status * int

(** {2 Scheduler slice headers}

    Under the work-stealing scheduler ({!Sched}), a worker core prefixes
    every slice of shard work it executes with one header word in its
    output stream. Headers occupy a status range disjoint from real
    responses so the host can split a core's interleaved stream back
    into per-shard response streams, ordered by slice sequence number. *)

val slice_status_base : int
(** First status code reserved for slice headers (8). *)

val slice_header : shard:int -> seq:int -> int
(** Header word announcing slice [seq] of [shard]. *)

val is_slice_header : int -> bool

val decode_slice_header : int -> int * int
(** [(shard, seq)]. Raises [Invalid_argument] on a non-header word. *)

(** {2 Tenant key namespaces}

    Tenants share one store but own disjoint key ranges: tenant [t] of
    a store with [space] keys per tenant owns global keys
    [t*space+1 .. (t+1)*space]. *)

val tenant_key : space:int -> tenant:int -> int -> int
(** Global key for a tenant-local key in [1..space]. *)

val tenant_of_key : space:int -> int -> int
(** Owning tenant of a global key. *)

