(** Total wrappers around the compiler-libs OCaml parser.

    Any parser/lexer exception yields [None] instead of escaping, so one
    malformed file never crashes the linter: it is counted as a parse
    fallback and produces no findings (qcheck-verified in
    [test/suite_sema.ml]).  A successful parse also returns the comments
    the compiler's lexer saw, which carry every suppression, hotness and
    unit annotation and every doc comment. *)

type comment = {
  text : string;  (** body between the delimiters, as the lexer read it *)
  start_line : int;  (** 1-based line of the opening delimiter *)
  end_line : int;  (** line of the closing delimiter *)
  doc : bool;  (** a [(** ... *)] doc comment ([(**)] is not one) *)
  after_code : bool;  (** code precedes it on its start line *)
}
(** One source comment, in source order. *)

val implementation :
  filename:string -> string -> (Parsetree.structure * comment list) option
(** Parse a [.ml] source given as a string; [None] on any parse failure. *)

val interface :
  filename:string -> string -> (Parsetree.signature * comment list) option
(** Parse a [.mli] source given as a string; [None] on any parse
    failure. *)
