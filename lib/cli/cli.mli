(** The front door of every executable: how a command line becomes a
    checked config and an exit code. Each range is checked once, by a
    converter, while the line is parsed; a bad value is a usage error
    naming its flag (or environment variable), printed with the usage
    before anything runs. Nothing is clamped. *)

open Cmdliner

(** {1 Range-checked converters} *)

val positive : int Arg.conv
val non_negative : int Arg.conv
val non_negative_float : float Arg.conv

val kernel : string Arg.conv
(** A name from {!Capri_workloads.Suite.names} (or an unambiguous
    prefix of one). *)

(** {1 Flags declared once} *)

val jobs : int Term.t
(** [--jobs], positive; absent, [CAPRI_JOBS] (checked like the flag) or
    else [Domain.recommended_domain_count ()]. *)

val shards : int Term.t
(** [--shards], positive, default 2. *)

val ops : default:int -> int Term.t
(** [--ops], requests per shard, positive. *)

val crashes : int Term.t
(** [--crash], non-negative, default 2. *)

val focus : Capri_arch.Persist.mode Term.t
(** [--mode], the focus run's mode by name (any case, [_] for [-]),
    default [capri]. *)

(** {1 Fuzz campaigns} *)

type campaign =
  | Kernel of Capri_fuzz.Campaign.cfg
  | Service of Capri_fuzz.Service_fuzz.cfg

val campaign : campaign Term.t
(** [fuzz/main.exe]'s flags, defaulting to {!Capri_fuzz.Campaign.default_cfg}
    (and {!Capri_fuzz.Service_fuzz.default_cfg}'s transaction bounds).
    [--mode] takes a comma list of mode names, [all] for every mode.
    [--min-txns] above [--max-txns], and [--steal] without [--service],
    are usage errors. *)

(** {1 Evaluation} *)

val info :
  ?version:string -> ?man:Manpage.block list -> doc:string -> string -> Cmd.info
(** [Cmd.info] with {!eval}'s exit codes. *)

val eval : bool Cmd.t -> Cmd.Exit.code
(** Evaluates the command on [Sys.argv] and the environment. A command's
    term evaluates to [true] when every check it ran held. The code is 0
    on success; 1 when a check failed (an oracle violation, a failing
    campaign, a missed SLO) or the input program is bad (an IR parse
    error, {!Capri_runtime.Executor.Livelock}); 124 on a usage error;
    125 on an internal error. *)

val of_words : 'a Term.t -> string list -> ('a, string) result
(** [of_words term (name :: args)] evaluates [term] on [args] with no
    environment: how a printed command line (a fuzz repro line) is
    replayed. [Error] carries cmdliner's message. *)
