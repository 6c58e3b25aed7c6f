(** Comparison operators at type [int] only.

    [Cache] and [Memory] open this module, so every [=], [<>], [<],
    [<=], [>] and [>=] in them compiles to a machine compare rather than
    a call into the polymorphic [caml_equal] family, and a comparison at
    any other type in those files is a type error. The declarations are
    [external] here too, so the primitives stay specialised at each use
    site across the module boundary. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( >= ) : int -> int -> bool = "%greaterequal"
