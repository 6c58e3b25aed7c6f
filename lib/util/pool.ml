(* Fixed-size Domain work pool.

   Tasks are closures pushed onto a shared FIFO protected by a mutex;
   [jobs - 1] worker domains plus any domain blocked in [await] drain it.
   [await] is help-first: while its future is unresolved it executes other
   queued tasks instead of sleeping, so nested submission (a task that
   itself submits and awaits subtasks) cannot deadlock — tasks form a DAG
   and some runnable task always exists.

   Determinism: the pool affects only *when* tasks run, never what they
   compute; [map_list] submits in list order and awaits in list order, so
   results come back in input order regardless of the execution schedule.
   Callers keep experiment output byte-identical to a sequential run by
   doing all printing after the awaits.

   With [jobs = 1] no domains are spawned and [submit] runs the task
   immediately in the calling domain — the exact sequential execution
   order. *)

type 'a state = Pending | Value of 'a | Error of exn * Printexc.raw_backtrace

type 'a future = {
  mutable state : 'a state;
  fmutex : Mutex.t;
  fcond : Condition.t;
}

type task = Task : 'a future * (unit -> 'a) -> task

type t = {
  jobs : int;
  queue : task Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;  (* signalled on push and on shutdown *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
}

let finish (fut : 'a future) (st : 'a state) =
  Mutex.lock fut.fmutex;
  fut.state <- st;
  Condition.broadcast fut.fcond;
  Mutex.unlock fut.fmutex

let run_task (Task (fut, f)) =
  let st =
    match f () with
    | v -> Value v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  finish fut st

(* Pop a task, or [None] if the queue is empty. *)
let try_pop t =
  Mutex.lock t.qmutex;
  let task = Queue.take_opt t.queue in
  Mutex.unlock t.qmutex;
  task

let worker t () =
  let rec loop () =
    Mutex.lock t.qmutex;
    while Queue.is_empty t.queue && not t.shutting_down do
      Condition.wait t.qcond t.qmutex
    done;
    let task = Queue.take_opt t.queue in
    Mutex.unlock t.qmutex;
    match task with
    | Some task ->
      run_task task;
      loop ()
    | None -> if not t.shutting_down then loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be positive";
  let t =
    {
      jobs;
      queue = Queue.create ();
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      shutting_down = false;
      workers = [];
    }
  in
  if jobs > 1 then
    t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
  t

let jobs t = t.jobs

let submit t f =
  let fut = { state = Pending; fmutex = Mutex.create (); fcond = Condition.create () } in
  if t.jobs <= 1 then run_task (Task (fut, f))
  else begin
    Mutex.lock t.qmutex;
    Queue.push (Task (fut, f)) t.queue;
    Condition.signal t.qcond;
    Mutex.unlock t.qmutex
  end;
  fut

let resolve = function
  | Value v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let peek fut =
  Mutex.lock fut.fmutex;
  let st = fut.state in
  Mutex.unlock fut.fmutex;
  st

let await t fut =
  (* Help-first: drain the queue while the future is unresolved. *)
  let rec help () =
    match peek fut with
    | (Value _ | Error _) as st -> resolve st
    | Pending -> (
      match try_pop t with
      | Some task ->
        run_task task;
        help ()
      | None ->
        (* Nothing to steal: the task is in flight on another domain. *)
        Mutex.lock fut.fmutex;
        while fut.state = Pending do
          Condition.wait fut.fcond fut.fmutex
        done;
        let st = fut.state in
        Mutex.unlock fut.fmutex;
        resolve st)
  in
  help ()

let map_list t f xs =
  let futures = List.map (fun x -> submit t (fun () -> f x)) xs in
  List.map (fun fut -> await t fut) futures

let shutdown t =
  Mutex.lock t.qmutex;
  t.shutting_down <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex;
  List.iter Domain.join t.workers

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
