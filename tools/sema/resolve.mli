(** Cross-module name resolution over the value-reference graph.

    Maps alias-expanded value paths (e.g. [["Mppm_util"; "Rng"; "int"]])
    to the compilation unit that defines them, using the dune library
    name -> directory mapping for wrapped-library heads, same-directory
    lookup for within-library references, and the referencing file's
    [open]s as a fallback. *)

type env
(** The resolution environment: library aliases and the units each
    scanned directory defines. *)

val build : dunes:(string * string) list -> files:string list -> env
(** [build ~dunes ~files] derives the environment from every scanned
    [dune] file ([(rel, content)] pairs; each ["(name x)"] maps the
    capitalized name to the dune file's directory) and the list of scanned
    source paths. *)

val resolve : env -> Facts.t -> string list -> (string * string) option
(** [resolve env facts path] is [Some (unit_key, member)] when [path],
    referenced from the file described by [facts], resolves to another
    compilation unit, and [None] for local, stdlib or unresolvable
    references. *)
