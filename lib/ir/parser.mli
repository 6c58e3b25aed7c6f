(** Parser for the textual IR format emitted by the pretty-printers, so
    programs can live in files and round-trip through tools:

    {v
    program (main = main)

    data 65536 = 7
    data 65537 = 11

    func main (entry entry):
    entry:
      r1 = mov 65536
      r2 = load [r1 + 0]
      store [r1 + 1], r2
      branch r2 ? done.0 : done.0
    done.0:
      out r2
      halt
    v}

    The instruction grammar matches {!Instr.pp} / {!Instr.pp_terminator}
    exactly; [data] lines extend {!Program.t}'s initial data image (the
    printer in {!Program.pp} does not emit them, so {!to_string} here
    adds them for full round-tripping). *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (Program.t, error) result
(** Parse a whole program from a string. The result is validated. *)

val parse_file : string -> (Program.t, error) result

val to_string : Program.t -> string
(** Like {!Program.pp} but also emits [data] lines, so
    [parse (to_string p)] reconstructs [p] exactly. *)
