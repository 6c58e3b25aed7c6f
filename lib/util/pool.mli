(** Fixed-size Domain work pool for embarrassingly parallel fan-out.

    Tasks are closures; [jobs - 1] worker domains plus every domain blocked
    in {!await} drain a shared FIFO. {!await} is help-first (it executes
    other queued tasks while its own future is unresolved), so tasks may
    themselves submit and await subtasks without deadlock.

    The pool affects scheduling only, never results: {!map_list} returns
    results in input order, and with [jobs = 1] no domains are spawned at
    all — tasks run immediately in the calling domain, in exact sequential
    order. *)

type t
type 'a future

val create : jobs:int -> t
(** Raises [Invalid_argument] if [jobs] is below 1. *)

val jobs : t -> int

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. With [jobs = 1] the task runs before [submit]
    returns. *)

val await : t -> 'a future -> 'a
(** Blocks (helping with other queued tasks first) until the task
    completes; re-raises the task's exception, with its backtrace, if it
    failed. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with deterministic (input-order) results. *)

val shutdown : t -> unit
(** Joins the worker domains. The pool must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)
