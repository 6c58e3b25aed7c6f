type op = Get | Put | Delete | Cas | Txn

type request = { op : op; key : int; value : int; expected : int }

let op_code = function Get -> 0 | Put -> 1 | Delete -> 2 | Cas -> 3 | Txn -> 4

let words_per_request = 4

let payload_bits = 20
let payload_limit = 1 lsl payload_bits

let check_request r =
  (match r.op with
  | Txn ->
    if r.key < 1 then invalid_arg "Wire: txn ids start at 1";
    if r.value < 1 then
      invalid_arg "Wire: a txn marker must carry at least one local item";
    if r.expected <> 0 then
      invalid_arg "Wire: a txn marker's expected field must be 0"
  | Get | Put | Delete | Cas ->
    if r.key < 1 then invalid_arg "Wire: keys start at 1 (0 is the empty slot)");
  if r.value < 0 || r.value >= payload_limit then
    invalid_arg "Wire: value outside the payload range";
  if r.expected < 0 || r.expected >= payload_limit then
    invalid_arg "Wire: expected outside the payload range"

let encode_request r =
  check_request r;
  [| op_code r.op; r.key; r.value; r.expected |]

type txn = { tid : int; items : (int * request) array }

let check_txn ~shards t =
  if t.tid < 1 then invalid_arg "Wire: txn ids start at 1";
  if Array.length t.items = 0 then invalid_arg "Wire: empty transaction";
  Array.iter
    (fun (shard, r) ->
      if shard < 0 || shard >= shards then
        invalid_arg "Wire: txn item targets a shard out of range";
      (match r.op with
      | Get | Put | Cas -> ()
      | Delete | Txn ->
        invalid_arg "Wire: txn items are get/put/cas only");
      check_request r)
    t.items

type status = Ok | Miss | Cas_fail | Committed | Aborted

let status_code = function
  | Ok -> 0
  | Miss -> 1
  | Cas_fail -> 2
  | Committed -> 3
  | Aborted -> 4

let response ~status ~payload = (status_code status * payload_limit) + payload
let response_miss = response ~status:Miss ~payload:0

let decode_response w =
  let status =
    match w / payload_limit with
    | 0 -> Ok
    | 1 -> Miss
    | 2 -> Cas_fail
    | 3 -> Committed
    | 4 -> Aborted
    | _ -> invalid_arg (Printf.sprintf "Wire.decode_response: %d" w)
  in
  (status, w mod payload_limit)

(* ------------------- scheduler slice headers ------------------- *)

(* When the store runs under the work-stealing scheduler, each worker
   core announces every slice it executes with one header word in its
   output stream: the shard the slice belongs to and the shard's slice
   sequence number. Headers live in a status range disjoint from real
   responses (status >= slice_status_base), so the host can demultiplex
   a core's interleaved stream back into per-shard response streams. *)
let slice_status_base = 8

let slice_header ~shard ~seq =
  if shard < 0 then invalid_arg "Wire.slice_header: negative shard";
  if seq < 0 || seq >= payload_limit then
    invalid_arg "Wire.slice_header: seq outside the payload range";
  ((slice_status_base + shard) * payload_limit) + seq

let is_slice_header w = w / payload_limit >= slice_status_base

let decode_slice_header w =
  if not (is_slice_header w) then
    invalid_arg (Printf.sprintf "Wire.decode_slice_header: %d" w);
  ((w / payload_limit) - slice_status_base, w mod payload_limit)

(* ------------------- tenant key namespaces ------------------- *)

(* Tenants share one store but own disjoint key ranges: tenant [t] of a
   store with [space] keys per tenant owns global keys
   [t*space+1 .. (t+1)*space]. Routing and SLA attribution both derive
   from the same arithmetic, so a request can never read or write
   another tenant's namespace. *)
let tenant_key ~space ~tenant key =
  if space < 1 then invalid_arg "Wire.tenant_key: non-positive space";
  if tenant < 0 then invalid_arg "Wire.tenant_key: negative tenant";
  if key < 1 || key > space then
    invalid_arg "Wire.tenant_key: key outside the tenant namespace";
  (tenant * space) + key

let tenant_of_key ~space key =
  if space < 1 then invalid_arg "Wire.tenant_of_key: non-positive space";
  (key - 1) / space
