(** The lint rules.

    Rule ids (each suppressible at a finding's line, or the line above it,
    with a [(* lint: allow <rule> *)] comment):

    - [D1] — nondeterminism sources banned in [lib/]: the stdlib [Random]
      module, wall-clock reads ([Sys.time], [Unix.gettimeofday], ...),
      [Hashtbl.hash]-family functions, and [Hashtbl.create] without an
      explicit [~random:false].  Also flags [lib/] dune files linking the
      [unix] library.
    - [D2] — stdlib [Random] used outside [lib/util/rng.ml] anywhere in the
      scanned tree: all randomness must flow through [Mppm_util.Rng].
    - [F1] — float equality via polymorphic [=]/[==]/[<>]/[!=]/[compare]
      against a float literal in comparison position; use
      [Mppm_util.Stats.approx_equal] (or [Float.equal] when exactness is
      intended).
    - [M1] — every public module under [lib/] has an [.mli], and every
      [val]/[external] item of a [lib/] [.mli] carries a doc comment
      ([type]/[exception] items get warnings).
    - [E1] — [failwith]/[invalid_arg] in [lib/] code with a literal message
      must prefix the message with the module name ("Model.predict: ..." or
      "Metrics: ...").
    - [O1] — no console output from [lib/]: bare channel printers
      ([print_string], [prerr_endline], ...), [Printf.printf]/[eprintf],
      [Format.printf]/[eprintf], and [Format.std_formatter]/
      [err_formatter] are banned.  Library code returns data, renders
      through a caller-supplied formatter, or emits through an
      [Mppm_obs] sink. *)

type scope = Lib | Exec | Testish
(** Where a file lives, which decides rule applicability and severity:
    [Lib] is [lib/]; [Testish] is [test/] and [examples/], where [M1] and
    [O1] downgrade to warnings; [Exec] is everything else ([bin/],
    [bench/], [tools/]). *)

type ctx = {
  rel : string;  (** root-relative path, '/'-separated *)
  scope : scope;  (** see {!scope} *)
  in_lib : bool;  (** true when [scope] is [Lib] *)
  is_mli : bool;
  module_name : string;  (** capitalized basename, e.g. ["Model"] *)
}

val all_rule_ids : string list
(** The known rule identifiers across both analysis layers: the token
    rules, then the AST rules (S1-S8, P1-P4, U1-U3).  The rule table in
    docs/static-analysis.md describes each one. *)

val context_of_rel : string -> ctx
(** Derive a {!ctx} from a root-relative path. *)

val check_tokens : ctx -> Lexer.lexed -> Diag.t list
(** Run every token-level rule applicable to [ctx] over one lexed file.
    Suppression comments are {e not} applied here (see
    {!Engine.lint_source}). *)

val check_dune : rel:string -> string -> Diag.t list
(** Rules for [dune] files: [lib/] libraries must not link [unix] (D1). *)

val missing_mli : rel_ml:string -> Diag.t
(** The M1 diagnostic for a [lib/] module lacking an [.mli]. *)
